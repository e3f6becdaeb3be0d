"""Resilience rules (GRM8xx).

The execution runtime's whole recovery model rests on failures being
*visible*: classified by the retry policy, recorded in the run ledger,
counted in cache stats.  A handler that swallows a broad exception class
with no re-raise and no logging deletes the failure from every one of
those channels — the sweep "succeeds" with silently missing or wrong
cells.

* ``GRM801`` — ``except:`` / ``except Exception:`` / ``except
  BaseException:`` whose body neither re-raises nor logs (a bare ``pass``
  / ``...`` body).  Either narrow the exception to the types the code can
  actually absorb (``except OSError:`` around best-effort disk writes is
  fine), log through :func:`repro.obs.log.get_logger`, or let it
  propagate into the runtime's failure isolation, which turns it into a
  classified, ledgered ``JobResult``.
* ``GRM802`` — non-atomic write in ``repro/runtime/``: a bare
  ``open(..., "w")`` (or ``"wb"``/``"w+"``...) or a
  ``.write_text()``/``.write_bytes()`` call outside the blessed
  :mod:`repro.runtime.atomicio` helpers.  Runtime files are *shared
  durable state* — cache envelopes, claim files, manifests — read by
  concurrent sweep workers; a write-in-place tears under crash or
  contention into exactly the corruption the quarantine machinery then
  has to mop up.  Route the write through ``atomic_write_bytes`` /
  ``atomic_write_text`` (tmp + fsync + rename) or
  ``exclusive_create_text`` (``O_CREAT|O_EXCL``); append-mode journal
  handles and reads are untouched.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, ModuleContext, rule

_BROAD_NAMES = {"Exception", "BaseException"}

# Call attribute/function names that count as surfacing the error.
_LOGGING_NAMES = {
    "debug",
    "info",
    "warning",
    "warn",
    "error",
    "exception",
    "critical",
    "log",
}


def _names_broad_type(node: ast.expr | None) -> bool:
    """Whether an ``except`` type expression catches (at least) Exception."""
    if node is None:
        return True  # bare except
    if isinstance(node, ast.Name):
        return node.id in _BROAD_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _BROAD_NAMES
    if isinstance(node, ast.Tuple):
        return any(_names_broad_type(element) for element in node.elts)
    return False


def _handles_the_error(handler: ast.ExceptHandler) -> bool:
    """Whether the handler body re-raises or logs the failure."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            fn = node.func
            name = (
                fn.attr
                if isinstance(fn, ast.Attribute)
                else fn.id
                if isinstance(fn, ast.Name)
                else ""
            )
            if name in _LOGGING_NAMES:
                return True
    return False


def _body_is_trivial(handler: ast.ExceptHandler) -> bool:
    """Whether the body does nothing at all (``pass`` / ``...`` / docstring)."""
    for stmt in handler.body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue
        return False
    return True


@rule(
    "GRM801",
    "resilience",
    "broad except handler swallows the error without re-raise or logging",
)
def exception_swallowing(context: ModuleContext) -> Iterator[Finding]:
    for node in context.nodes:
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not _names_broad_type(node.type):
            continue
        if _handles_the_error(node):
            continue
        if not _body_is_trivial(node):
            # The body does *something* (sets a fallback, returns a failure
            # value); conservative scope keeps the rule signal-only.
            continue
        caught = (
            ast.unparse(node.type) if node.type is not None else "<bare>"
        )
        yield context.finding(
            node,
            "GRM801",
            f"except {caught} swallows the error with no re-raise or "
            "logging — narrow the exception type, log via "
            "repro.obs.log.get_logger(), or let the runtime's failure "
            "isolation classify and ledger it",
        )


#: GRM802 scopes itself to the runtime package — the one place where
#: written files are shared durable state (cache entries, claims,
#: manifests, journals) read by concurrent worker processes.
_GRM802_SCOPE = "runtime/"

#: The module that *implements* the blessed write shapes; its internals
#: are necessarily below the abstraction the rule enforces.
_GRM802_EXEMPT = "atomicio"


def _open_write_mode(call: ast.Call) -> str | None:
    """The literal write mode of a builtin ``open`` call, if any.

    Only constant-string modes are judged (a computed mode is out of
    conservative scope).  Append (``"a"``) is allowed: single-``write()``
    appends on a journal handle are the ledger's blessed shape.
    """
    fn = call.func
    if not (isinstance(fn, ast.Name) and fn.id == "open"):
        return None
    mode: ast.expr | None = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return None
    if "w" in mode.value or "x" in mode.value:
        return mode.value
    return None


@rule(
    "GRM802",
    "resilience",
    "non-atomic write to shared runtime state (use repro.runtime.atomicio)",
)
def non_atomic_write(context: ModuleContext) -> Iterator[Finding]:
    if _GRM802_SCOPE not in context.relpath:
        return
    if _GRM802_EXEMPT in context.relpath:
        return
    for node in context.nodes:
        if not isinstance(node, ast.Call):
            continue
        mode = _open_write_mode(node)
        if mode is not None:
            yield context.finding(
                node,
                "GRM802",
                f"open(..., {mode!r}) writes shared runtime state in "
                "place — a crash or concurrent reader sees a torn file; "
                "publish via repro.runtime.atomicio.atomic_write_bytes/"
                "atomic_write_text (tmp+fsync+rename) or "
                "exclusive_create_text (O_EXCL) instead",
            )
            continue
        fn = node.func
        if isinstance(fn, ast.Attribute) and fn.attr in (
            "write_text",
            "write_bytes",
        ):
            yield context.finding(
                node,
                "GRM802",
                f".{fn.attr}() writes shared runtime state in place — a "
                "crash or concurrent reader sees a torn file; publish "
                "via repro.runtime.atomicio.atomic_write_bytes/"
                "atomic_write_text (tmp+fsync+rename) instead",
            )
