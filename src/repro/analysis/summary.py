"""Per-module analysis summaries: the checker's one fact base.

:func:`summarize_module` reduces one parsed module to a frozen, picklable
:class:`ModuleSummary` — everything the project pass needs to build a
module graph, a call graph, and an interprocedural taint analysis without
ever re-reading the file — and, in the same pass, to the module's
:class:`SourceSite` records, which the module rules query.  It runs
inside the per-file analysis step (:mod:`repro.analysis.core`), over the
tree and the nodes of the kinds it classifies, read off the node index
the module rules share, before those rules run.  The summary rides in
that step's cached
:class:`~repro.analysis.core.FileRecord`; the sites are consumed by the
module rules in the same step and are not cached.  A summary does not
know its module's dotted name, so one record serves every checked root:

* the module's **imports** (local alias → dotted target); relative
  targets keep their leading dots until :meth:`ModuleSummary.imports_dict`
  resolves them against the name the project pass gives the module;
* a :class:`FunctionSummary` per function and method, carrying the calls
  it makes, the **taint atoms** that flow to its return value, its sink
  and pool-submission sites, and the spec/params fields it reads;
* the module's classes (for ``self.``/ctor resolution), detected
  **backend** classes (``*Backend`` with a ``run`` method), and **spec**
  classes (anything defining ``cache_key``/``fingerprint``), including
  which dataclass fields the spec digest covers.

The source sites cover the whole module, module scope included: each
clock, RNG, environment or graph-producer name
(:func:`~repro.analysis._ast_util.source_kind`) and each argument a pool
submission pickles.  The GRM1xx/2xx/5xx/9xx module rules are queries
over these sites.

The dataflow here is deliberately *intra*-procedural and summary-shaped:
each expression is reduced to a set of atoms — ``src:<kind>`` for a taint
source (named by the same classifier as the sites, once the callee's head
is resolved through the module's imports), ``call:<dotted>`` for a call
whose resolution happens later at project scope, ``param:<name>`` for a
parameter — propagated through local assignments with branch merging.
The interprocedural fixpoint over ``call:`` atoms lives in
:mod:`repro.analysis.taint`; summaries therefore cache with their file
record (content-addressed by source hash) and recombine cheaply.

Conservatism cuts the *miss* direction by design: a call that cannot be
resolved to a project symbol contributes no taint, so the project rules
only ever report flows they can spell out end-to-end.  Precision
limitations (closures, attribute calls on arbitrary objects, containers)
are documented in docs/static-analysis.md.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ._ast_util import (
    SEEDABLE_RNGS,
    call_name,
    dotted_name,
    is_pool_submission,
    source_kind,
    span,
    tail_name,
)

__all__ = [
    "DETERMINISTIC_RESULT_FIELDS",
    "SCAN_KINDS",
    "CallSite",
    "Sink",
    "SourceSite",
    "Submit",
    "FunctionSummary",
    "SpecClassInfo",
    "BackendInfo",
    "ModuleSummary",
    "summarize_module",
]

#: ``JobResult`` fields that must be deterministic functions of the spec.
#: ``wall_seconds``, ``retries``, ``cached`` and ``cache_key`` are host
#: provenance, explicitly excluded from result fingerprints.
DETERMINISTIC_RESULT_FIELDS = frozenset(
    {"seconds", "energy_j", "detail", "system", "ok", "error"}
)

# -- taint atoms ------------------------------------------------------------

ATOM_LAMBDA = "lambda"
ATOM_PARAMSDICT = "paramsdict"

_CACHE_KEY_METHODS = {"get_or_create", "lookup", "store", "entry_path"}
_ASDICT_NAMES = {"asdict", "astuple", "dataclasses.asdict", "dataclasses.astuple"}

Atoms = frozenset[str]
_EMPTY: Atoms = frozenset()


# -- summary dataclasses ----------------------------------------------------


@dataclass(frozen=True)
class CallSite:
    """One call expression: the callee as written, and where."""

    callee: str
    line: int


@dataclass(frozen=True)
class Sink:
    """A deterministic-output site and the atoms flowing into it.

    ``kind`` is one of ``result_field`` (a deterministic ``JobResult``
    ctor keyword), ``cache_key`` (the key argument of an
    ``ArtifactCache`` method or ``stable_hash``), or ``stats_field``
    (a ``SimStats`` ctor keyword or ``<...stats...>.field`` assignment).
    ``atoms`` are sorted, as are all atoms a summary keeps, so a record
    pickles to the same bytes under any string-hash seed.
    """

    kind: str
    detail: str
    line: int
    col: int
    atoms: tuple[str, ...]


@dataclass(frozen=True)
class Submit:
    """A pool submission site: the callable and per-argument sorted atoms."""

    method: str
    line: int
    col: int
    callee: str | None
    callee_kind: str  # "name" | "lambda" | "nested" | "other"
    arg_atoms: tuple[tuple[str, ...], ...]
    arg_names: tuple[str, ...]


@dataclass(frozen=True)
class SourceSite:
    """One place a module names a source, module scope included.

    ``kind`` is :func:`~repro.analysis._ast_util.source_kind`'s verdict on
    ``name`` as written; ``form`` is ``"attribute"`` (a dotted reference),
    ``"call"`` or ``"import"`` (``from m import x`` names ``m.x``).
    ``seeded`` is set on seedable RNG constructor calls only.  Kind
    ``"pool"`` is an argument a pool submission pickles (``form`` is
    ``"lambda"`` or ``"argument"``), ``via`` the submission method.
    Kind ``"turbo"`` is evidence of the removed turbo engine: a constant
    exactly ``"turbo"`` (``form`` ``"constant"``), or a name, attribute or
    parameter whose identifier contains ``turbo`` (``form`` ``"name"``,
    ``"attribute"`` or ``"arg"``); a docstring that merely discusses
    turbo is no evidence.
    ``lineno``/``col_offset`` are the anchor node's, so a site anchors a
    finding as that node would.
    """

    kind: str
    name: str
    lineno: int
    col_offset: int
    form: str
    seeded: bool | None = None
    via: str = ""


@dataclass(frozen=True)
class FunctionSummary:
    """Everything the project pass keeps about one function or method."""

    name: str
    class_name: str | None
    params: tuple[str, ...]
    param_annotations: tuple[tuple[str, str], ...]  # (param, annotation)
    line: int
    calls: tuple[CallSite, ...]
    return_atoms: tuple[str, ...]  # sorted
    sinks: tuple[Sink, ...]
    submits: tuple[Submit, ...]
    # (param name, attribute, line) for plain field reads off parameters.
    attr_reads: tuple[tuple[str, str, int], ...]
    # (key, line) for ``params["k"]`` / ``params.get("k")`` reads.
    param_key_reads: tuple[tuple[str, int], ...]
    # Names of functions nested inside this one (unpicklable if submitted).
    nested: tuple[str, ...] = ()

    @property
    def qualname(self) -> str:
        return f"{self.class_name}.{self.name}" if self.class_name else self.name

    @property
    def return_calls(self) -> tuple[str, ...]:
        return tuple(
            a[len("call:"):] for a in self.return_atoms if a.startswith("call:")
        )


@dataclass(frozen=True)
class SpecClassInfo:
    """A spec-like class: its fields and what its digest covers."""

    name: str
    line: int
    digest_method: str  # "cache_key" or "fingerprint"
    fields: tuple[str, ...]
    covered: tuple[str, ...]
    complete: bool  # True when the digest serializes the whole object


@dataclass(frozen=True)
class BackendInfo:
    """A ``*Backend`` class with a ``run`` entry point."""

    name: str
    line: int
    spec_annotation: str | None


@dataclass(frozen=True)
class ModuleSummary:
    """One module, reduced to what whole-program analysis needs."""

    imports: tuple[tuple[str, str], ...]
    functions: tuple[FunctionSummary, ...]
    classes: tuple[tuple[str, tuple[str, ...]], ...]
    class_bases: tuple[tuple[str, tuple[str, ...]], ...]
    spec_classes: tuple[SpecClassInfo, ...]
    backends: tuple[BackendInfo, ...]

    def imports_dict(self, module: str) -> dict[str, str]:
        """Local alias → absolute dotted target, as imported by ``module``."""
        return {
            local: _resolve_relative(module, target)
            for local, target in self.imports
        }

    def class_methods(self) -> dict[str, frozenset[str]]:
        return {name: frozenset(methods) for name, methods in self.classes}


# -- import resolution ------------------------------------------------------


def _resolve_relative(module: str, target: str) -> str:
    """Absolute form of an import target; leading dots are the level."""
    dotted = target.lstrip(".")
    level = len(target) - len(dotted)
    if not level:
        return target
    # ``module`` is the *importing* module; its package is everything but
    # the last component.  level=1 means "this package".
    parts = module.split(".")
    return ".".join(parts[: len(parts) - level] + dotted.split("."))


def _resolve_head(name: str, imports: dict[str, str]) -> str:
    """``name`` with its first component replaced by what it imports.

    ``from time import perf_counter as now`` makes ``now`` read as
    ``time.perf_counter``.
    """
    head, dot, rest = name.partition(".")
    target = imports.get(head)
    return name if target is None else target + dot + rest


def _passes_seed(call: ast.Call) -> bool:
    """True when the call passes a non-``None`` seed (positionally or by name)."""
    for arg in call.args[:1]:
        if not (isinstance(arg, ast.Constant) and arg.value is None):
            return True
    for keyword in call.keywords:
        if keyword.arg == "seed" and not (
            isinstance(keyword.value, ast.Constant) and keyword.value.value is None
        ):
            return True
    return False


_Def = ast.FunctionDef | ast.AsyncFunctionDef

#: The node types :func:`_scan_module` classifies; it ignores any other.
SCAN_KINDS: tuple[type[ast.AST], ...] = (
    ast.Name,
    ast.Attribute,
    ast.Constant,
    ast.arg,
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.Call,
    ast.Import,
    ast.ImportFrom,
)


def _scan_module(
    nodes: Iterable[ast.AST],
) -> tuple[list[tuple[str, str]], list[SourceSite], list[_Def]]:
    """One pass over a module's nodes: import bindings, source sites, defs.

    ``nodes`` are in ``ast.walk`` order; only the :data:`SCAN_KINDS`
    among them matter.  The defs come in that order, for
    :func:`_nested_defs`.
    """
    # Later bindings win, matching Python semantics closely enough.
    bindings: dict[str, str] = {}
    sites: list[SourceSite] = []
    defs: list[_Def] = []

    def add(
        kind: str,
        name: str,
        at: ast.expr | ast.stmt | ast.arg,
        form: str,
        seeded: bool | None = None,
        via: str = "",
    ) -> None:
        sites.append(
            SourceSite(kind, name, at.lineno, at.col_offset, form, seeded, via)
        )

    for node in nodes:
        if isinstance(node, ast.Name):
            if "turbo" in node.id.lower():
                add("turbo", node.id, node, "name")
        elif isinstance(node, ast.Attribute):
            # GRM101/GRM201 flag any reference to a clock or the
            # environment (``now = time.time``), not only calls.
            name = dotted_name(node)
            kind = source_kind(name)
            if name and kind in ("wallclock", "env"):
                add(kind, name, node, "attribute")
            if "turbo" in node.attr.lower():
                add("turbo", node.attr, node, "attribute")
        elif isinstance(node, ast.Constant):
            if node.value == "turbo":
                add("turbo", "turbo", node, "constant")
        elif isinstance(node, ast.arg):
            if "turbo" in node.arg.lower():
                add("turbo", node.arg, node, "arg")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.append(node)
        elif isinstance(node, ast.Call):
            func = node.func
            # ``make().load_edge_list()`` is named by its method.
            name = call_name(node) or tail_name(func)
            kind = source_kind(name)
            if name and kind:
                add(kind, name, node, "call",
                    _passes_seed(node) if name in SEEDABLE_RNGS else None)
            if is_pool_submission(func):
                for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                    if isinstance(arg, ast.Lambda):
                        add("pool", "", arg, "lambda", via=func.attr)
                    elif arg_name := tail_name(arg):
                        add("pool", arg_name, arg, "argument", via=func.attr)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bindings[alias.asname] = alias.name
                else:
                    # ``import a.b.c`` binds ``a``; keep the full dotted
                    # path so ``a.b.c.f`` resolves by prefix.
                    head = alias.name.split(".")[0]
                    bindings[head] = head
                    bindings[alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                kind = source_kind(name) if node.module else None
                if kind:
                    add(kind, name, node, "import")
                if alias.name != "*":
                    target = ".".join(filter(None, (node.module, alias.name)))
                    bindings[alias.asname or alias.name] = "." * node.level + target
    return sorted(bindings.items()), sites, defs


def _nested_defs(defs: list[_Def]) -> dict[int, list[_Def]]:
    """Each def's nested defs (any depth), in ``ast.walk`` order.

    ``defs`` is every def of a module in ``ast.walk`` order; keys are
    ``id()``s of defs that nest at least one other.  Nesting is read off
    source spans (:func:`~repro.analysis._ast_util.span`): one stack over
    the defs in source order holds exactly the defs enclosing the next
    one.  The module walk is breadth-first, so its order restricted to
    one def's subtree is that def's own walk order.
    """
    spans = [span(node) for node in defs]
    nested: dict[int, list[int]] = {}
    stack: list[int] = []
    for index in sorted(range(len(defs)), key=lambda i: spans[i]):
        start = spans[index][0]
        while stack and spans[stack[-1]][1] <= start:
            stack.pop()
        for outer in stack:
            nested.setdefault(outer, []).append(index)
        stack.append(index)
    return {
        id(defs[outer]): [defs[index] for index in sorted(inner)]
        for outer, inner in nested.items()
    }


# -- the intra-procedural walker -------------------------------------------


class _FunctionWalker:
    """Forward atom propagation through one function body.

    Tracks, per local name, the set of atoms its value may carry;
    branches merge by union, loops run their body twice so loop-carried
    atoms stabilize.  Sinks, calls, submissions, and field reads are
    recorded as side effects while expressions are reduced.
    """

    def __init__(
        self,
        params: Iterable[str],
        local_funcs: dict[str, "FunctionSummary"],
        imports: dict[str, str],
    ) -> None:
        self.params = tuple(params)
        self.local_funcs = local_funcs
        self.imports = imports
        self.calls: dict[tuple[str, int], CallSite] = {}
        self.sinks: dict[tuple[str, str, int, int], set[str]] = {}
        self.submits: dict[tuple[int, int], Submit] = {}
        self.attr_reads: set[tuple[str, str, int]] = set()
        self.param_key_reads: set[tuple[str, int]] = set()
        self.return_atoms: set[str] = set()
        self.nested: list[str] = []

    def source_kind(self, name: str | None) -> str | None:
        """The source kind of ``name``, its head resolved through imports."""
        if name is None:
            return None
        return source_kind(_resolve_head(name, self.imports))

    # -- expression reduction ---------------------------------------------

    def atoms(self, node: ast.expr | None, env: dict[str, Atoms]) -> Atoms:
        if node is None:
            return _EMPTY
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            if node.id in self.params:
                return frozenset({f"param:{node.id}"})
            return _EMPTY
        if isinstance(node, ast.Call):
            return self._call_atoms(node, env)
        if isinstance(node, ast.Attribute):
            self._note_attr_read(node)
            return self.atoms(node.value, env)
        if isinstance(node, ast.Subscript):
            self._note_key_read(node, env)
            out = self.atoms(node.value, env) | self.atoms(node.slice, env)
            # ``os.environ["X"]``: subscripting the env mapping reads it.
            if self.source_kind(dotted_name(node.value)) == "env":
                out |= {"src:env"}
            return out
        if isinstance(node, ast.Lambda):
            # Reduce the body for call recording; the value itself is an
            # unpicklable closure.
            self.atoms(node.body, dict(env))
            return frozenset({ATOM_LAMBDA})
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            out: set[str] = set()
            for element in node.elts:
                out |= self.atoms(element, env)
            return frozenset(out)
        if isinstance(node, ast.Dict):
            out = set()
            for key in node.keys:
                out |= self.atoms(key, env)
            for value in node.values:
                out |= self.atoms(value, env)
            return frozenset(out)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            inner = dict(env)
            for generator in node.generators:
                gen_atoms = self.atoms(generator.iter, inner)
                for name in _target_names(generator.target):
                    inner[name] = gen_atoms
                for cond in generator.ifs:
                    self.atoms(cond, inner)
            if isinstance(node, ast.DictComp):
                return self.atoms(node.key, inner) | self.atoms(node.value, inner)
            return self.atoms(node.elt, inner)
        if isinstance(node, ast.BoolOp):
            out = set()
            for value in node.values:
                out |= self.atoms(value, env)
            return frozenset(out)
        if isinstance(node, ast.BinOp):
            return self.atoms(node.left, env) | self.atoms(node.right, env)
        if isinstance(node, ast.UnaryOp):
            return self.atoms(node.operand, env)
        if isinstance(node, ast.Compare):
            out = set(self.atoms(node.left, env))
            for comparator in node.comparators:
                out |= self.atoms(comparator, env)
            return frozenset(out)
        if isinstance(node, ast.IfExp):
            self.atoms(node.test, env)
            return self.atoms(node.body, env) | self.atoms(node.orelse, env)
        if isinstance(node, ast.JoinedStr):
            out = set()
            for value in node.values:
                out |= self.atoms(value, env)
            return frozenset(out)
        if isinstance(node, ast.FormattedValue):
            return self.atoms(node.value, env)
        if isinstance(node, (ast.Await, ast.Starred, ast.NamedExpr)):
            inner_atoms = self.atoms(node.value, env)
            if isinstance(node, ast.NamedExpr) and isinstance(node.target, ast.Name):
                env[node.target.id] = inner_atoms
            return inner_atoms
        if isinstance(node, ast.Slice):
            out = set()
            for part in (node.lower, node.upper, node.step):
                out |= self.atoms(part, env)
            return frozenset(out)
        return _EMPTY

    def _note_attr_read(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name) and node.value.id in self.params:
            self.attr_reads.add((node.value.id, node.attr, node.lineno))

    def _note_key_read(self, node: ast.Subscript, env: dict[str, Atoms]) -> None:
        base = node.value
        key = node.slice
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            return
        if isinstance(base, ast.Name) and ATOM_PARAMSDICT in env.get(base.id, _EMPTY):
            self.param_key_reads.add((key.value, node.lineno))

    def _call_atoms(self, node: ast.Call, env: dict[str, Atoms]) -> Atoms:
        callee = call_name(node)
        # Reduce the receiver of attribute calls without treating the
        # method name as a field read (``spec.label()`` reads no field).
        if isinstance(node.func, ast.Attribute):
            self.atoms(node.func.value, env)
        arg_atoms = [self.atoms(arg, env) for arg in node.args]
        # Positional, parallel to ``node.keywords``: several ``**`` expansions
        # in one call all have ``kw.arg is None`` and must not collapse.
        kw_atoms = [self.atoms(kw.value, env) for kw in node.keywords]
        merged: set[str] = set()
        for atoms in arg_atoms:
            merged |= atoms
        for atoms in kw_atoms:
            merged |= atoms

        self._note_sinks(node, callee, arg_atoms, kw_atoms, env)
        self._note_submit(node, callee, arg_atoms, kw_atoms, env)
        self._note_params_get(node, callee, env)

        if callee is not None:
            self.calls[(callee, node.lineno)] = CallSite(callee, node.lineno)
            kind = self.source_kind(callee)
            if kind is not None:
                return frozenset(merged | {f"src:{kind}"})
            local = self.local_funcs.get(callee)
            if local is not None:
                # Calls to nested functions expand inline: their return
                # atoms are already project-resolvable.
                return frozenset(merged | set(local.return_atoms))
            result: set[str] = merged | {f"call:{callee}"}
            if callee.endswith(".params_dict"):
                result.add(ATOM_PARAMSDICT)
            return frozenset(result)
        return frozenset(merged)

    def _note_params_get(
        self, node: ast.Call, callee: str | None, env: dict[str, Atoms]
    ) -> None:
        """Record ``params.get("k", ...)`` reads on params-dict values."""
        if not (
            isinstance(node.func, ast.Attribute) and node.func.attr == "get"
        ):
            return
        base = node.func.value
        if not (
            isinstance(base, ast.Name)
            and ATOM_PARAMSDICT in env.get(base.id, _EMPTY)
        ):
            return
        if node.args and isinstance(node.args[0], ast.Constant):
            key = node.args[0].value
            if isinstance(key, str):
                self.param_key_reads.add((key, node.lineno))

    def _note_sinks(
        self,
        node: ast.Call,
        callee: str | None,
        arg_atoms: list[Atoms],
        kw_atoms: list[Atoms],
        env: dict[str, Atoms],
    ) -> None:
        if callee is None:
            return
        tail = callee.rsplit(".", 1)[-1]
        if tail == "JobResult":
            for kw, atoms in zip(node.keywords, kw_atoms):
                if kw.arg in DETERMINISTIC_RESULT_FIELDS:
                    self._add_sink("result_field", kw.arg, kw.value, atoms)
        elif tail == "SimStats":
            for kw, atoms in zip(node.keywords, kw_atoms):
                if kw.arg is not None:
                    self._add_sink("stats_field", kw.arg, kw.value, atoms)
        elif tail == "stable_hash" and node.args:
            self._add_sink("cache_key", callee, node.args[0], arg_atoms[0])
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _CACHE_KEY_METHODS
            and len(node.args) >= 2
            and _receiver_is_cache(node.func)
        ):
            self._add_sink(
                "cache_key", f"{callee}[key]", node.args[1], arg_atoms[1]
            )

    def _add_sink(
        self, kind: str, detail: str, node: ast.expr, atoms: Atoms
    ) -> None:
        slot = (kind, detail, node.lineno, node.col_offset)
        self.sinks.setdefault(slot, set()).update(atoms)

    def _note_submit(
        self,
        node: ast.Call,
        callee: str | None,
        arg_atoms: list[Atoms],
        kw_atoms: list[Atoms],
        env: dict[str, Atoms],
    ) -> None:
        func = node.func
        if not is_pool_submission(func):
            return
        submitted = node.args[0] if node.args else None
        submitted_name: str | None = None
        callee_kind = "other"
        if isinstance(submitted, ast.Lambda):
            callee_kind = "lambda"
        elif submitted is not None:
            submitted_name = dotted_name(submitted)
            if submitted_name is not None:
                if submitted_name in self.nested:
                    callee_kind = "nested"
                elif ATOM_LAMBDA in env.get(submitted_name, _EMPTY):
                    callee_kind = "lambda"
                else:
                    callee_kind = "name"
        names = []
        for arg in node.args[1:]:
            names.append(dotted_name(arg) or type(arg).__name__)
        for kw in node.keywords:
            names.append(kw.arg or "**")
        payload_atoms = tuple(
            tuple(sorted(atoms)) for atoms in [*arg_atoms[1:], *kw_atoms]
        )
        self.submits[(node.lineno, node.col_offset)] = Submit(
            method=func.attr,
            line=node.lineno,
            col=node.col_offset,
            callee=submitted_name,
            callee_kind=callee_kind,
            arg_atoms=payload_atoms,
            arg_names=tuple(names),
        )

    # -- statement execution -----------------------------------------------

    def exec_block(
        self, stmts: Iterable[ast.stmt], env: dict[str, Atoms]
    ) -> dict[str, Atoms]:
        for stmt in stmts:
            env = self.exec_stmt(stmt, env)
        return env

    def exec_stmt(self, stmt: ast.stmt, env: dict[str, Atoms]) -> dict[str, Atoms]:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
                value = stmt.value
            else:
                targets = [stmt.target]
                value = stmt.value
            atoms = self.atoms(value, env)
            for target in targets:
                for name in _target_names(target):
                    if isinstance(stmt, ast.AugAssign):
                        atoms = atoms | env.get(name, _EMPTY)
                    env[name] = atoms
                # ``<...stats...>.field = atoms`` is a stats sink.
                if isinstance(target, ast.Attribute):
                    base = dotted_name(target.value)
                    if base is not None and "stats" in base.lower():
                        self._add_sink("stats_field", target.attr, target, atoms)
            return env
        if isinstance(stmt, ast.Return):
            self.return_atoms |= self.atoms(stmt.value, env)
            return env
        if isinstance(stmt, ast.Expr):
            self.atoms(stmt.value, env)
            return env
        if isinstance(stmt, ast.If):
            self.atoms(stmt.test, env)
            left = self.exec_block(stmt.body, dict(env))
            right = self.exec_block(stmt.orelse, dict(env))
            return _merge_env(left, right)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_atoms = self.atoms(stmt.iter, env)
            for name in _target_names(stmt.target):
                env[name] = iter_atoms
            # Two passes so loop-carried atoms stabilize; sink/call sites
            # dedup by position, so re-walking only widens atom sets.
            body_env = self.exec_block(stmt.body, dict(env))
            env = _merge_env(env, body_env)
            body_env = self.exec_block(stmt.body, dict(env))
            env = _merge_env(env, body_env)
            return self.exec_block(stmt.orelse, env)
        if isinstance(stmt, ast.While):
            self.atoms(stmt.test, env)
            body_env = self.exec_block(stmt.body, dict(env))
            env = _merge_env(env, body_env)
            body_env = self.exec_block(stmt.body, dict(env))
            env = _merge_env(env, body_env)
            return self.exec_block(stmt.orelse, env)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                item_atoms = self.atoms(item.context_expr, env)
                if item.optional_vars is not None:
                    for name in _target_names(item.optional_vars):
                        env[name] = item_atoms
            return self.exec_block(stmt.body, env)
        if isinstance(stmt, ast.Try):
            env = self.exec_block(stmt.body, env)
            for handler in stmt.handlers:
                env = _merge_env(env, self.exec_block(handler.body, dict(env)))
            env = self.exec_block(stmt.orelse, env)
            return self.exec_block(stmt.finalbody, env)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.nested.append(stmt.name)
            return env  # summarized separately by the caller
        if isinstance(stmt, (ast.Raise, ast.Assert)):
            if isinstance(stmt, ast.Raise):
                self.atoms(stmt.exc, env)
            else:
                self.atoms(stmt.test, env)
            return env
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                for name in _target_names(target):
                    env.pop(name, None)
            return env
        # Fallback (match, global, class defs, ...): reduce any child
        # expressions so calls are still recorded, without env tracking.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self.atoms(child, env)
        return env


def _merge_env(a: dict[str, Atoms], b: dict[str, Atoms]) -> dict[str, Atoms]:
    out = dict(a)
    for name, atoms in b.items():
        # Branches mostly rejoin with nothing new: keep the set already there.
        prev = out.get(name)
        if prev is None:
            out[name] = atoms
        elif not atoms <= prev:
            out[name] = prev | atoms
    return out


def _target_names(target: ast.expr) -> Iterator[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)


def _receiver_is_cache(func: ast.Attribute) -> bool:
    base = func.value
    name = dotted_name(base)
    if name is not None:
        return "cache" in name.lower()
    if isinstance(base, ast.Call):
        inner = call_name(base)
        return inner is not None and "cache" in inner.lower()
    return False


# -- function/class/module summarization ------------------------------------


def _param_names(args: ast.arguments) -> list[str]:
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        params.append(args.vararg.arg)
    if args.kwarg:
        params.append(args.kwarg.arg)
    return params


def _param_annotations(args: ast.arguments) -> list[tuple[str, str]]:
    out = []
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        if arg.annotation is not None:
            name = _annotation_name(arg.annotation)
            if name:
                out.append((arg.arg, name))
    return out


def _annotation_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotation: take the first dotted identifier.
        return node.value.split("|")[0].strip().strip('"')
    name = dotted_name(node)
    if name is not None:
        return name
    if isinstance(node, ast.Subscript):
        return _annotation_name(node.value)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotation_name(node.left)
    return None


def _summarize_function(
    node: _Def,
    class_name: str | None,
    imports: dict[str, str],
    nested_defs: dict[int, list[_Def]],
    memo: dict[int, FunctionSummary],
) -> FunctionSummary:
    """One function's summary; its nested defs come from ``nested_defs``.

    A nested def is summarized once per module (``memo``, keyed by the
    def's ``id()``), however many defs enclose it.
    """
    params = _param_names(node.args)

    # Summarize nested defs first so calls to them expand inline.
    local_funcs: dict[str, FunctionSummary] = {}
    for stmt in nested_defs.get(id(node), ()):
        summary = memo.get(id(stmt))
        if summary is None:
            summary = memo[id(stmt)] = _summarize_function(
                stmt, None, imports, nested_defs, memo
            )
        local_funcs[stmt.name] = summary

    walker = _FunctionWalker(params, local_funcs, imports)
    walker.nested.extend(local_funcs)
    env: dict[str, Atoms] = {}
    # ``self`` is never a taint carrier here.
    walker.exec_block(node.body, env)

    # Fold nested functions' sinks/submits/calls into the enclosing
    # summary: they execute in this function's file region and their
    # callees must reach the project call graph.
    sinks = {slot: set(atoms) for slot, atoms in walker.sinks.items()}
    submits = dict(walker.submits)
    calls = dict(walker.calls)
    attr_reads = set(walker.attr_reads)
    param_key_reads = set(walker.param_key_reads)
    for nested_summary in local_funcs.values():
        for sink in nested_summary.sinks:
            sinks.setdefault(
                (sink.kind, sink.detail, sink.line, sink.col), set()
            ).update(sink.atoms)
        for submit in nested_summary.submits:
            submits.setdefault((submit.line, submit.col), submit)
        for call in nested_summary.calls:
            calls.setdefault((call.callee, call.line), call)
        attr_reads.update(nested_summary.attr_reads)
        param_key_reads.update(nested_summary.param_key_reads)

    return FunctionSummary(
        name=node.name,
        class_name=class_name,
        params=tuple(params),
        param_annotations=tuple(_param_annotations(node.args)),
        line=node.lineno,
        calls=tuple(
            sorted(calls.values(), key=lambda c: (c.line, c.callee))
        ),
        return_atoms=tuple(sorted(walker.return_atoms)),
        sinks=tuple(
            Sink(kind, detail, line, col, tuple(sorted(atoms)))
            for (kind, detail, line, col), atoms in sorted(sinks.items())
        ),
        submits=tuple(
            submits[slot] for slot in sorted(submits)
        ),
        attr_reads=tuple(sorted(attr_reads)),
        param_key_reads=tuple(sorted(param_key_reads)),
        nested=tuple(sorted(local_funcs)),
    )


def _spec_digest_info(
    node: ast.ClassDef,
    method: ast.FunctionDef | ast.AsyncFunctionDef,
) -> SpecClassInfo:
    fields = tuple(
        stmt.target.id
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    )
    covered: set[str] = set()
    complete = False
    for sub in ast.walk(method):
        if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            if sub.value.id == "self":
                covered.add(sub.attr)
        elif isinstance(sub, ast.Call):
            callee = call_name(sub)
            if callee in _ASDICT_NAMES and any(
                isinstance(a, ast.Name) and a.id == "self" for a in sub.args
            ):
                complete = True
    return SpecClassInfo(
        name=node.name,
        line=node.lineno,
        digest_method=method.name,
        fields=fields,
        covered=tuple(sorted(covered & set(fields))) if fields else tuple(sorted(covered)),
        complete=complete,
    )


_TRY_TYPES: tuple[type, ...] = (
    (ast.Try, ast.TryStar) if hasattr(ast, "TryStar") else (ast.Try,)
)


def _top_level_statements(stmts: Iterable[ast.stmt]) -> Iterator[ast.stmt]:
    """Module-level statements, descending into ``if``/``try``/``with``.

    Functions and classes behind version gates or import fallbacks
    (``try: ... except ImportError: def f(): ...``) still bind module
    names at runtime, so they belong in the project symbol table; later
    definitions win downstream, matching Python's last-binding-wins.
    """
    for stmt in stmts:
        if isinstance(stmt, ast.If):
            yield from _top_level_statements(stmt.body)
            yield from _top_level_statements(stmt.orelse)
        elif isinstance(stmt, _TRY_TYPES):
            yield from _top_level_statements(stmt.body)
            for handler in stmt.handlers:
                yield from _top_level_statements(handler.body)
            yield from _top_level_statements(stmt.orelse)
            yield from _top_level_statements(stmt.finalbody)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            yield from _top_level_statements(stmt.body)
        else:
            yield stmt


def summarize_module(
    tree: ast.Module, nodes: Iterable[ast.AST]
) -> tuple[ModuleSummary, tuple[SourceSite, ...]]:
    """Reduce one parsed module to its :class:`ModuleSummary` and source sites.

    ``nodes`` is ``tree``'s nodes in ``ast.walk`` order, or just those of
    the :data:`SCAN_KINDS` (what the analysis step passes, from its node
    index :meth:`~repro.analysis.core.ModuleContext.of`); one pass over
    it collects the imports and every source site.  The summary
    is cached with the file record for the project pass; the sites serve
    only the module rules, which run in the same analysis step, so they
    stay out of it.
    """
    import_list, sites, defs = _scan_module(nodes)
    imports = dict(import_list)
    nested_defs = _nested_defs(defs)
    memo: dict[int, FunctionSummary] = {}
    functions: list[FunctionSummary] = []
    classes: list[tuple[str, tuple[str, ...]]] = []
    class_bases: list[tuple[str, tuple[str, ...]]] = []
    spec_classes: list[SpecClassInfo] = []
    backends: list[BackendInfo] = []

    for stmt in _top_level_statements(tree.body):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(
                _summarize_function(stmt, None, imports, nested_defs, memo)
            )
        elif isinstance(stmt, ast.ClassDef):
            methods: list[str] = []
            digest_method: ast.FunctionDef | ast.AsyncFunctionDef | None = None
            run_method: ast.FunctionDef | ast.AsyncFunctionDef | None = None
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.append(item.name)
                    functions.append(
                        _summarize_function(
                            item, stmt.name, imports, nested_defs, memo
                        )
                    )
                    if item.name in ("cache_key", "fingerprint"):
                        digest_method = digest_method or item
                    if item.name == "run":
                        run_method = item
            classes.append((stmt.name, tuple(methods)))
            bases = tuple(
                name
                for name in (dotted_name(base) for base in stmt.bases)
                if name is not None
            )
            class_bases.append((stmt.name, bases))
            if digest_method is not None:
                spec_classes.append(_spec_digest_info(stmt, digest_method))
            if stmt.name.endswith("Backend") and run_method is not None:
                annotation = None
                for param, ann in _param_annotations(run_method.args):
                    if param != "self":
                        annotation = ann
                        break
                backends.append(
                    BackendInfo(
                        name=stmt.name,
                        line=stmt.lineno,
                        spec_annotation=annotation,
                    )
                )

    summary = ModuleSummary(
        imports=tuple(import_list),
        functions=tuple(functions),
        classes=tuple(classes),
        class_bases=tuple(class_bases),
        spec_classes=tuple(spec_classes),
        backends=tuple(backends),
    )
    return summary, tuple(sites)
