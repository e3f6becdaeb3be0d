"""Graph-store routing rules (GRM9xx).

Every graph in the repository is supposed to be addressed through the
content-addressed :class:`repro.graph.store.GraphStore`: materialized once
into a checksummed artifact, then opened everywhere as a read-only memory
map.  Calling the edge-list parser or a proxy generator directly at an
arbitrary call site silently opts out of all of that — the graph is
rebuilt per process, carries no digest, and its pages are private instead
of shared.

* ``GRM901`` — a ``load_edge_list``/``parse_edge_list`` or proxy-generator
  (``erdos_renyi``/``powerlaw_cluster``/``rmat``) call outside the graph
  layer itself (``repro/graph/``) or the dataset registry
  (``repro/experiments/datasets.py``).  Route the load through
  ``GraphStore.import_edge_list`` / ``experiments.datasets.load`` instead.
  (Unit tests and benchmarks may still build graphs inline — ``gramer
  check`` gates ``src``, not ``tests``.)
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, ModuleContext, rule

#: Call names that construct a graph outside the store's custody.
_FLAGGED_CALLS = frozenset(
    {
        "load_edge_list",
        "parse_edge_list",
        "erdos_renyi",
        "powerlaw_cluster",
        "rmat",
    }
)


def _is_exempt(relpath: str) -> bool:
    # The graph layer (parser, generators, and the store that wraps them)
    # and the dataset registry are the two sanctioned producers.
    return "repro/graph/" in relpath or relpath.endswith(
        "repro/experiments/datasets.py"
    )


@rule(
    "GRM901",
    "graph_store",
    "graph loaded or generated outside the GraphStore path",
)
def graph_outside_store(context: ModuleContext) -> Iterator[Finding]:
    if _is_exempt(context.relpath):
        return
    for call in context.nodes:
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name not in _FLAGGED_CALLS:
            continue
        yield context.finding(
            call,
            "GRM901",
            f"{name}() builds a graph outside the store — address graphs "
            "through repro.graph.store.GraphStore (import_edge_list / "
            "experiments.datasets.load) so they are materialized once and "
            "memory-mapped everywhere",
        )
