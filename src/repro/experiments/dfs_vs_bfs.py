"""§V-A quantified — the DFS execution model vs the rejected BFS mode.

The paper argues BFS-style accelerators would "waste significant memory
bandwidth" on intermediate embeddings and need infeasible off-chip
capacity.  This experiment takes Table III's DFS-mode GRAMER cells and
projects each onto the (bandwidth-optimistic) BFS-mode cost model,
reporting the projected slowdown and intermediate traffic per graph.
"""

from __future__ import annotations

from repro.accel.bfs_model import estimate_bfs_mode
from repro.runtime.executor import Executor

from .harness import (
    build_app,
    experiment_config,
    format_table,
    gramer_spec,
    run_cells,
)
from .datasets import DATASET_ORDER

__all__ = ["run", "render", "main"]


def run(
    scale: str = "small",
    app_name: str = "4-MC",
    graphs: list[str] | None = None,
    executor: Executor | None = None,
) -> list[dict]:
    """One row per graph: DFS cycles vs projected BFS-mode cycles."""
    graphs = graphs if graphs is not None else list(DATASET_ORDER)
    cells = run_cells(
        {graph: gramer_spec(app_name, graph, scale) for graph in graphs},
        executor,
    )
    rows = []
    for graph_name, detail in cells.items():
        estimate = estimate_bfs_mode(
            detail["cycles"],
            detail["embeddings"],
            build_app(app_name, graph_name, scale).max_vertices,
            experiment_config(),
        )
        rows.append(
            {
                "graph": graph_name,
                "dfs_cycles": estimate.dfs_cycles,
                "bfs_cycles": estimate.bfs_cycles,
                "slowdown": estimate.slowdown,
                "intermediate_mb": estimate.intermediate_bytes / 2**20,
                "peak_level_mb": estimate.peak_level_bytes / 2**20,
            }
        )
    return rows


def render(rows: list[dict]) -> str:
    """Format :func:`run`'s rows as the DFS-vs-BFS comparison."""
    table = format_table(
        ["Graph", "DFS cycles", "BFS cycles", "BFS slowdown",
         "Intermediates", "Peak level"],
        [
            [
                r["graph"],
                str(r["dfs_cycles"]),
                str(r["bfs_cycles"]),
                f"{r['slowdown']:.2f}x",
                f"{r['intermediate_mb']:.1f}MB",
                f"{r['peak_level_mb']:.1f}MB",
            ]
            for r in rows
        ],
    )
    return (
        "§V-A quantified — DFS vs (optimistic) BFS execution mode "
        "(4-MC)\n" + table
    )


def main(scale: str = "small") -> str:
    """Run and render the DFS-vs-BFS comparison."""
    return render(run(scale))


if __name__ == "__main__":
    print(main())
