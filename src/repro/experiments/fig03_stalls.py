"""Fig. 3 — CPU pipeline stalls from random vertex/edge accesses.

The paper counts (with VTune) the share of pipeline stalls attributable to
random vertex and edge accesses for CF, FSM, MC on five graphs, showing the
share rising from ~30% (cache-resident Citeseer) to ~68% (Patents).  We
reproduce the breakdown with the trace-driven CPU model: stall cycles beyond
the L1 are attributed to the access's dimension; 'others' is everything
else.
"""

from __future__ import annotations

from dataclasses import replace

from repro.baselines.cpu import CPUMemory
from repro.mining.engine import run_dfs

from . import datasets
from .harness import build_app, format_table

__all__ = ["run", "render", "main", "FIG3_GRAPHS", "FIG3_APPS"]

FIG3_GRAPHS = ["citeseer", "p2p", "astro", "mico", "patents"]
FIG3_APPS = ["3-CF", "FSM", "3-MC"]


def run(scale: str = "small") -> list[dict]:
    """One row per (graph, app): stall shares."""
    rows = []
    # The paper's Fig. 3 trials instrument a lean native mining run, not the
    # JVM framework the Table III baseline models — so the per-candidate
    # software overhead here is the instruction cost of the mining kernel
    # itself, an order of magnitude below Fractal's framework constant.
    cpu_config = replace(
        datasets.scaled_cpu_config(scale),
        cycles_per_candidate=15,
        cycles_per_access=1,
    )
    for graph_name in FIG3_GRAPHS:
        for app_name in FIG3_APPS:
            app = build_app(app_name, graph_name, scale)
            graph = (
                datasets.load_labeled(graph_name, scale)
                if app.needs_labels
                else datasets.load(graph_name, scale)
            )
            memory = CPUMemory(graph, cpu_config)
            memory.warm()
            run_dfs(graph, app, mem=memory)
            fractions = memory.breakdown.stall_fractions()
            rows.append(
                {
                    "graph": graph_name,
                    "app": app_name,
                    "vertex_stall": fractions["vertex"],
                    "edge_stall": fractions["edge"],
                    "others": fractions["others"],
                }
            )
    return rows


def render(rows: list[dict]) -> str:
    """Format :func:`run`'s rows as the Fig. 3 breakdown."""
    table = format_table(
        ["Graph", "App", "Vertex Access", "Edge Access", "Others"],
        [
            [
                r["graph"],
                r["app"],
                f"{r['vertex_stall']:.1%}",
                f"{r['edge_stall']:.1%}",
                f"{r['others']:.1%}",
            ]
            for r in rows
        ],
    )
    return "Fig. 3 — pipeline stall breakdown (CPU model)\n" + table


def main(scale: str = "small") -> str:
    """Run and render the Fig. 3 breakdown."""
    return render(run(scale))


if __name__ == "__main__":
    print(main())
