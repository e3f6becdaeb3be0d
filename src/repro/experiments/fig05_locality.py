"""Fig. 5 — extension locality of top-5% vertices and edges per iteration.

The paper traces all memory requests of MC per iteration and reports the
access share of the top-5% vertices (a) and edges (b) on Citeseer, P2P,
Astro, Mico: vertex share starts ≤ 30% and climbs toward 94%; edge share
starts at exactly 5% (every edge streamed once for 2-vertex embeddings) and
climbs toward 88%.
"""

from __future__ import annotations

from repro.locality.analysis import locality_curve
from repro.locality.trace import IterationTrace
from repro.mining.apps import MotifCounting
from repro.mining.engine import run_dfs

from . import datasets
from .harness import format_table

__all__ = ["run", "main", "FIG5_GRAPHS"]

FIG5_GRAPHS = ["citeseer", "p2p", "astro", "mico"]


def run(scale: str = "small", max_size: int = 4, fraction: float = 0.05) -> list[dict]:
    """One row per graph with per-iteration access shares."""
    rows = []
    for graph_name in FIG5_GRAPHS:
        graph = datasets.load(graph_name, scale)
        trace = IterationTrace(graph.num_vertices)
        run_dfs(graph, MotifCounting(max_size), mem=trace)
        curve = locality_curve(graph, trace, fraction)
        rows.append(
            {
                "graph": graph_name,
                "fraction": fraction,
                "vertex_share": dict(curve.vertex_share_by_iteration),
                "edge_share": dict(curve.edge_share_by_iteration),
            }
        )
    return rows


def main(scale: str = "small") -> str:
    """Render both panels of Fig. 5 as text."""
    rows = run(scale)
    iterations = sorted(rows[0]["vertex_share"])
    lines = []
    for key, title in (
        ("vertex_share", "(a) vertex access share of top 5%"),
        ("edge_share", "(b) edge access share of top 5%"),
    ):
        table = format_table(
            ["Graph"] + [f"iter {i}" for i in iterations],
            [
                [r["graph"]]
                + [f"{r[key].get(i, 0.0):.1%}" for i in iterations]
                for r in rows
            ],
        )
        lines.append(f"Fig. 5 {title}\n{table}")
    return "\n\n".join(lines)


if __name__ == "__main__":
    print(main())
