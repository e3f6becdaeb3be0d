"""Interprocedural forward taint over the project call graph.

The per-module summaries reduce every function's return value and every
sink argument to *atoms* — ``src:<kind>`` for a taint origin observed
locally, ``call:<callee>`` for a value produced by a call whose meaning
depends on who the callee is.  This module closes the loop: a fixpoint
computes the set of project functions whose **return value** carries a
given taint kind, and :func:`sink_taint` decides whether a particular
sink's atom set is tainted — either directly or through any chain of
resolved calls.

Everything here under-approximates on purpose.  A ``call:`` atom that
:class:`~repro.analysis.callgraph.CallGraph` cannot resolve to a project
function expands to *nothing*: the analysis only ever claims a flow it
can name function by function, which is what keeps the GRM10xx rules
silent on the live tree while still catching laundering through any
number of real, resolvable helpers.
"""

from __future__ import annotations

from .callgraph import CallGraph
from .project import ProjectAnalysis

__all__ = ["TAINT_KINDS", "sink_taint", "tainted_returns"]

#: The taint kinds the determinism rule tracks, with human labels used
#: in finding messages.
TAINT_KINDS = {
    "wallclock": "wall-clock time",
    "rng": "an unseeded RNG",
    "env": "the process environment",
    "graph": "a whole-graph object",
}


def tainted_returns(
    project: ProjectAnalysis, graph: CallGraph, kind: str
) -> dict[str, tuple[str, ...]]:
    """Functions whose return value carries ``src:<kind>`` taint.

    Returns ``fn_key -> witness chain``: the sequence of function keys
    from the queried function down to the one that touches the source
    directly (so ``("m:outer", "m:mid", "helpers:stamp")`` reads
    "outer returns mid() returns stamp() returns the source").
    """
    source_atom = f"src:{kind}"
    tainted: dict[str, tuple[str, ...]] = {}
    # Seed: functions returning the source directly.
    for key, _module, fn in project.functions():
        if source_atom in fn.return_atoms:
            tainted[key] = (key,)
    # Propagate through return-position calls until nothing changes.
    # The graph is small (one repo), so a simple fixpoint is plenty.
    changed = True
    while changed:
        changed = False
        for key, _module, fn in project.functions():
            if key in tainted:
                continue
            for callee_text in fn.return_calls:
                target = graph.resolve_atom(key, callee_text)
                if target is not None and target in tainted:
                    tainted[key] = (key, *tainted[target])
                    changed = True
                    break
    return tainted


def sink_taint(
    graph: CallGraph,
    fn_key: str,
    atoms: frozenset[str],
    kind: str,
    tainted: dict[str, tuple[str, ...]],
) -> tuple[str, ...] | None:
    """Witness chain if ``atoms`` (observed inside ``fn_key``) carry ``kind``.

    ``()`` means the source is read in ``fn_key`` itself; a non-empty
    chain names the resolved functions the value flowed through.
    ``None`` means the atom set is clean for this kind.
    """
    if f"src:{kind}" in atoms:
        return ()
    best: tuple[str, ...] | None = None
    for atom in sorted(atoms):
        if not atom.startswith("call:"):
            continue
        target = graph.resolve_atom(fn_key, atom[len("call:"):])
        if target is None:
            continue
        chain = tainted.get(target)
        if chain is not None and (best is None or len(chain) < len(best)):
            best = chain
    return best


def describe_chain(chain: tuple[str, ...] | list[str]) -> str:
    """Render a witness chain for a finding message."""
    return " -> ".join(key.replace(":", "::", 1) for key in chain)
