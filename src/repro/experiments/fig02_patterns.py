"""Fig. 2 (quantified) — access patterns: graph processing vs graph mining.

Fig. 2 is an illustrative diagram; this experiment measures its claim on
real traces: vertex-centric processing (BFS / CC / PageRank) randomises the
vertex dimension while streaming edges, whereas mining's extend-check model
randomises *both* dimensions — "graph mining performs a significant number
of random memory accesses on both vertex and edge data".
"""

from __future__ import annotations

from repro.locality.stride import StrideClassifier
from repro.mining.engine import run_dfs
from repro.processing import (
    BreadthFirstSearch,
    ConnectedComponents,
    PageRank,
    run_vertex_program,
)

from . import datasets
from .harness import build_app, format_table

__all__ = ["run", "main"]


def run(scale: str = "small", graph_name: str = "p2p") -> list[dict]:
    """One row per workload: the random/sequential × vertex/edge mix."""
    graph = datasets.load(graph_name, scale)
    rows = []

    processing = [
        BreadthFirstSearch(source=0),
        ConnectedComponents(),
        PageRank(tolerance=1e-3),
    ]
    for program in processing:
        classifier = StrideClassifier(graph)
        run_vertex_program(graph, program, mem=classifier)
        rows.append(
            {
                "workload": program.name,
                "class": "processing",
                **classifier.mix.fractions(),
                "random_vertex_share": classifier.mix.random_vertex_share,
                "random_edge_share": classifier.mix.random_edge_share,
            }
        )

    for app_name in ("3-CF", "3-MC", "4-MC"):
        app = build_app(app_name, graph_name, scale)
        classifier = StrideClassifier(graph)
        run_dfs(graph, app, mem=classifier)
        rows.append(
            {
                "workload": app_name,
                "class": "mining",
                **classifier.mix.fractions(),
                "random_vertex_share": classifier.mix.random_vertex_share,
                "random_edge_share": classifier.mix.random_edge_share,
            }
        )
    return rows


def main(scale: str = "small") -> str:
    """Render the access-mix comparison."""
    rows = run(scale)
    table = format_table(
        ["Workload", "Class", "Rand vertex", "Rand edge",
         "Rand-vertex share", "Rand-edge share"],
        [
            [
                r["workload"],
                r["class"],
                f"{r['random_vertex']:.1%}",
                f"{r['random_edge']:.1%}",
                f"{r['random_vertex_share']:.1%}",
                f"{r['random_edge_share']:.1%}",
            ]
            for r in rows
        ],
    )
    return (
        "Fig. 2 (quantified) — random-access composition, "
        "processing vs mining\n" + table
    )


if __name__ == "__main__":
    print(main())
