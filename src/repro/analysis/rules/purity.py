"""Cache-purity rules (GRM2xx).

The artifact cache assumes every memoized value is a pure function of its
content-address key.  Anything a backend or memoized producer reads
*besides* its spec — environment variables, mutable module globals, files
not named by the spec — silently poisons cached artifacts: the cache
returns results computed under state that no longer holds.

* ``GRM201`` — ``os.environ`` / ``os.getenv`` reads.  Configuration
  resolution at process startup (worker counts, cache roots) is the
  sanctioned exception and carries inline suppressions.
* ``GRM202`` — module-level mutable literals bound to lowercase names.
  A lowercase binding signals intent to mutate; shared mutable module
  state diverges between pool workers and the parent process.
  ``UPPER_CASE`` bindings are treated as declared constants.
* ``GRM203`` — filesystem or environment access inside memoized scopes:
  ``*Backend.run`` methods, producers handed to ``get_or_create``, and
  ``functools.lru_cache``/``cache``-decorated functions.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis._ast_util import call_name, dotted_name
from repro.analysis.core import Finding, ModuleContext, rule

_MUTABLE_LITERALS = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)
_MUTABLE_FACTORIES = {
    "list",
    "dict",
    "set",
    "bytearray",
    "deque",
    "defaultdict",
    "OrderedDict",
    "Counter",
    "collections.deque",
    "collections.defaultdict",
    "collections.OrderedDict",
    "collections.Counter",
}
_MEMO_DECORATORS = {
    "cache",
    "lru_cache",
    "functools.cache",
    "functools.lru_cache",
}
_IMPURE_CALLS = {
    "open",
    "os.getenv",
    "os.remove",
    "os.unlink",
    "os.replace",
    "os.rename",
    "os.listdir",
    "os.getcwd",
}
_IMPURE_METHODS = {
    "read_text",
    "read_bytes",
    "write_text",
    "write_bytes",
    "unlink",
    "mkdir",
}


def _env_reads(nodes: Iterable[ast.AST]) -> Iterator[ast.AST]:
    for node in nodes:
        if isinstance(node, ast.Attribute) and dotted_name(node) == "os.environ":
            yield node
        elif isinstance(node, ast.Call) and call_name(node) == "os.getenv":
            yield node
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ("environ", "getenv") for alias in node.names):
                yield node


@rule(
    "GRM201",
    "purity",
    "os.environ read outside process-startup configuration",
)
def environ_reads(context: ModuleContext) -> Iterator[Finding]:
    for node in _env_reads(context.nodes):
        yield context.finding(
            node,
            "GRM201",
            "environment read — cached results must be pure functions of "
            "their spec; resolve env config once at startup (suppress "
            "there with a reason) and pass values explicitly",
        )


@rule(
    "GRM202",
    "purity",
    "module-level mutable global bound to a lowercase name",
)
def mutable_module_globals(context: ModuleContext) -> Iterator[Finding]:
    for stmt in context.tree.body:
        targets: list[ast.expr]
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
            value = stmt.value
        else:
            continue
        mutable = isinstance(value, _MUTABLE_LITERALS) or (
            isinstance(value, ast.Call)
            and call_name(value) in _MUTABLE_FACTORIES
        )
        if not mutable:
            continue
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            name = target.id
            if name.startswith("__") and name.endswith("__"):
                continue  # dunders (__all__, ...) are module metadata
            if name != name.upper():  # UPPER_CASE reads as a constant
                yield context.finding(
                    stmt,
                    "GRM202",
                    f"module-level mutable global `{name}` — pool workers "
                    "each get their own copy, so mutations silently "
                    "diverge across processes; pass state explicitly or "
                    "rename to UPPER_CASE if it is a constant",
                )


def _memoized_scopes(
    nodes: Iterable[ast.AST],
) -> Iterator[tuple[str, ast.AST]]:
    """(description, scope body) pairs for every memoized code region."""
    for node in nodes:
        if isinstance(node, ast.ClassDef) and node.name.endswith("Backend"):
            for item in node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name == "run"
                ):
                    yield f"{node.name}.run (cache-memoized backend)", item
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                target = (
                    decorator.func
                    if isinstance(decorator, ast.Call)
                    else decorator
                )
                if dotted_name(target) in _MEMO_DECORATORS:
                    yield f"memoized function {node.name}", node
        elif isinstance(node, ast.Call):
            callee = node.func
            if (
                isinstance(callee, ast.Attribute)
                and callee.attr == "get_or_create"
            ):
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    if isinstance(arg, ast.Lambda):
                        yield "get_or_create producer", arg


def _impure_nodes(scope: ast.AST) -> Iterator[tuple[ast.AST, str]]:
    for node in ast.walk(scope):
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name in _IMPURE_CALLS:
                yield node, f"`{name}(...)`"
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _IMPURE_METHODS
            ):
                yield node, f"`.{node.func.attr}(...)`"
        elif isinstance(node, ast.Attribute) and dotted_name(node) == "os.environ":
            yield node, "`os.environ`"


@rule(
    "GRM203",
    "purity",
    "filesystem/environment access inside a memoized scope",
)
def impure_memoized_scope(context: ModuleContext) -> Iterator[Finding]:
    for description, scope in _memoized_scopes(context.nodes):
        for node, what in _impure_nodes(scope):
            yield context.finding(
                node,
                "GRM203",
                f"{what} inside {description} — the memoized result would "
                "depend on state outside its cache key; hoist the access "
                "out or fold its result into the key",
            )
