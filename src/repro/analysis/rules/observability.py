"""Observability rules (GRM6xx).

Diagnostics that bypass the obs layer are invisible to every sink the
subsystem provides — they cannot be silenced, leveled, redirected, or
captured in CI logs, and they contaminate machine-readable stdout.

* ``GRM601`` — bare ``print()`` in library code.  Route diagnostics
  through :func:`repro.obs.log.get_logger` and deliberate user-facing
  output through :func:`repro.obs.log.console`.  Exempt surfaces whose
  *job* is stdout: the CLI (``repro/cli.py``), the report renderer
  (``repro/experiments/report.py``), the obs log module itself (it owns
  the one sanctioned ``print``), and ``if __name__ == "__main__":``
  blocks (script entry points printing their own output).

* ``GRM602`` — raw tracer-primitive calls (``.emit`` / ``.complete`` /
  ``.instant`` / ``.counter`` / ``.metadata`` on a tracer-named
  receiver) outside ``repro/obs/``.  Event *shapes* belong to the obs
  layer: callers go through the typed emit helpers in
  ``repro.obs.hooks`` (``emit_job_event``, ``emit_job_retry``, the
  observer factories) so names, categories, and pid/tid conventions
  stay consistent and greppable in one module.  Receivers are matched
  by name (``tracer``, ``self.tracer``, ``self._tracer`` …), so
  ``registry.counter(...)`` — a metrics accessor, not a trace emit —
  never fires.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, ModuleContext, rule

_EXEMPT_RELPATH_SUFFIXES = (
    "repro/cli.py",
    "repro/experiments/report.py",
    "repro/obs/log.py",
)


def _is_main_guard(stmt: ast.stmt) -> bool:
    """Whether ``stmt`` is an ``if __name__ == "__main__":`` block."""
    if not isinstance(stmt, ast.If):
        return False
    test = stmt.test
    if not (isinstance(test, ast.Compare) and len(test.ops) == 1):
        return False
    if not isinstance(test.ops[0], ast.Eq):
        return False
    operands = [test.left, *test.comparators]
    names = [
        o.id for o in operands if isinstance(o, ast.Name)
    ]
    constants = [
        o.value for o in operands if isinstance(o, ast.Constant)
    ]
    return names == ["__name__"] and constants == ["__main__"]


def _main_guard_ranges(tree: ast.Module) -> list[tuple[int, int]]:
    return [
        (stmt.lineno, stmt.end_lineno or stmt.lineno)
        for stmt in tree.body
        if _is_main_guard(stmt)
    ]


@rule(
    "GRM601",
    "observability",
    "bare print() in library code outside sanctioned output surfaces",
)
def bare_print(context: ModuleContext) -> Iterator[Finding]:
    if context.relpath.endswith(_EXEMPT_RELPATH_SUFFIXES):
        return
    guard_ranges = _main_guard_ranges(context.tree)
    for node in context.of(ast.Call):
        if not (isinstance(node.func, ast.Name) and node.func.id == "print"):
            continue
        line = node.lineno
        if any(start <= line <= end for start, end in guard_ranges):
            continue
        yield context.finding(
            node,
            "GRM601",
            "bare print() — diagnostics go through "
            "repro.obs.log.get_logger() (leveled, stderr) and deliberate "
            "user-facing output through repro.obs.log.console()",
        )


_TRACER_PRIMITIVES = frozenset(
    {"emit", "complete", "instant", "counter", "metadata"}
)


def _receiver_name(node: ast.expr) -> str | None:
    """Innermost attribute/name of a call receiver (``a.b.tracer`` → ``tracer``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_tracer_receiver(name: str | None) -> bool:
    return name is not None and name.lstrip("_").lower().endswith("tracer")


@rule(
    "GRM602",
    "observability",
    "raw tracer-primitive call outside the obs layer's typed emit helpers",
)
def raw_tracer_emit(context: ModuleContext) -> Iterator[Finding]:
    if "repro/obs/" in context.relpath:
        return  # the obs layer owns the primitives (hooks.py wraps them)
    for node in context.of(ast.Call):
        if not (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _TRACER_PRIMITIVES
        ):
            continue
        if not _is_tracer_receiver(_receiver_name(node.func.value)):
            continue
        yield context.finding(
            node,
            "GRM602",
            f"raw tracer .{node.func.attr}() — event shapes belong to the "
            "obs layer; emit through a typed helper in repro.obs.hooks "
            "(emit_job_event, emit_job_retry, or a new helper beside them)",
        )
