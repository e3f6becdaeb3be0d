"""Engine-selection rules (GRM7xx).

The simulator has one exact engine, and
:func:`repro.accel.sim.make_simulator` is its one constructor outside
``repro.accel``.  Both are kept until the benchmark's frozen findings
(``perfbench/golden.json``, which pins this rule's hits on the
``bad_engine_selection.py`` fixture) are re-baselined without them.

* ``GRM701`` — direct ``GramerSimulator(...)`` construction outside
  ``repro/accel/``.  Call ``make_simulator(...)`` instead.  (Unit tests
  may still construct the engine directly — ``gramer check`` gates
  ``src``, not ``tests``.)
* ``GRM702`` — exact ``==``/``!=`` on a ``SimStats`` timing field in
  turbo context.  It guarded the approximate turbo tier, which has been
  removed; the rule stays until the benchmark's frozen findings
  (``perfbench/golden.json``, which pins its hits on the
  ``bad_turbo_timing.py`` fixture) are re-baselined without it, and its
  message says so.  Mining-count fields and ``pytest.approx`` comparisons
  are not flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, ModuleContext, rule


def _is_exempt(relpath: str) -> bool:
    return "repro/accel/" in relpath


@rule(
    "GRM701",
    "engine_selection",
    "direct GramerSimulator() construction bypassing make_simulator()",
)
def direct_simulator_construction(context: ModuleContext) -> Iterator[Finding]:
    if _is_exempt(context.relpath):
        return
    for node in context.nodes:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name != "GramerSimulator":
            continue
        yield context.finding(
            node,
            "GRM701",
            "direct GramerSimulator() construction — build simulators "
            "through repro.accel.sim.make_simulator(), the one "
            "constructor, kept with this rule until the benchmark-golden "
            "change",
        )


#: SimStats fields whose turbo values are tolerance-banded, never exact.
#: The mining counts (candidates_checked, embeddings_accepted,
#: roots_dispatched) are deliberately absent: those are byte-exact in
#: every engine and may be compared with ``==`` freely.
_TIMING_FIELDS = frozenset(
    {
        "cycles",
        "compute_cycles",
        "vertex_high_hits",
        "vertex_low_hits",
        "vertex_misses",
        "edge_high_hits",
        "edge_low_hits",
        "edge_misses",
        "vertex_wait_cycles",
        "edge_wait_cycles",
        "pu_finish_cycles",
        "pu_busy_cycles",
        "vertex_accesses",
        "edge_accesses",
        "dram_accesses",
        "vertex_hit_ratio",
        "edge_hit_ratio",
        "load_imbalance",
        "steals",
        "steal_attempts",
    }
)


def _mentions_turbo(scope: ast.AST) -> bool:
    """True when ``scope`` shows evidence of the turbo engine.

    Evidence is an ``"turbo"`` string literal (``engine="turbo"``), any
    identifier containing ``turbo`` (``TurboGramerSimulator``, a
    ``turbo_result`` fixture parameter), matched on names, attributes and
    function parameters.  Docstrings that merely discuss turbo do not
    count — the literal must be exactly ``"turbo"``.
    """
    for sub in ast.walk(scope):
        if isinstance(sub, ast.Constant) and sub.value == "turbo":
            return True
        if isinstance(sub, ast.Name) and "turbo" in sub.id.lower():
            return True
        if isinstance(sub, ast.Attribute) and "turbo" in sub.attr.lower():
            return True
        if isinstance(sub, ast.arg) and "turbo" in sub.arg.lower():
            return True
    return False


def _is_approx_call(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else (
        func.attr if isinstance(func, ast.Attribute) else None
    )
    return name == "approx"


@rule(
    "GRM702",
    "engine_selection",
    "exact equality on turbo timing fields (kept only for the benchmark's "
    "frozen findings)",
)
def adhoc_turbo_timing_equality(context: ModuleContext) -> Iterator[Finding]:
    if _is_exempt(context.relpath):
        return
    seen: set[int] = set()
    for func in context.nodes:
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not _mentions_turbo(func):
            continue
        for node in ast.walk(func):
            if id(node) in seen or not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            sides = [node.left, *node.comparators]
            field = next(
                (
                    s.attr
                    for s in sides
                    if isinstance(s, ast.Attribute) and s.attr in _TIMING_FIELDS
                ),
                None,
            )
            if field is None or any(_is_approx_call(s) for s in sides):
                continue
            seen.add(id(node))
            yield context.finding(
                node,
                "GRM702",
                f"exact comparison of SimStats timing field {field!r} in "
                "turbo context — the turbo engine has been removed; this "
                "rule is kept only for the benchmark's frozen findings",
            )
