"""Ablations beyond the paper's figures.

The paper motivates several design choices without sweeping them; DESIGN.md
calls them out and this module quantifies each:

* **Steal-victim selection** (§V-C): the stealing buffer vs the
  linear-feedback-shift-register random selector of [8] that the paper
  argues against ("stealing buffer can always ensure accurate stealing to a
  busy slot").
* **ON1 ranks vs no reordering** (§IV-B/C): what the priority machinery is
  worth when the rank map is replaced by the identity (pinning arbitrary
  low-ID data).
* **Vertex/edge isolation** (§IV-A): LAMH with both streams sharing one
  cache (thrashing) vs the isolated design — singled out as the reason the
  hierarchy splits the two.
* **Partition count** (§IV-A): the 8-partition choice vs narrower/wider
  memory systems.
"""

from __future__ import annotations

from repro.runtime.executor import Executor

from . import datasets
from .harness import (
    build_app,
    experiment_config,
    format_table,
    gramer_spec,
    normalized_rows,
    onchip_entries,
    run_cells,
    sweep,
)

__all__ = [
    "run",
    "run_steal_selector",
    "run_rank_source",
    "run_arbitrator_policy",
    "run_partition_sweep",
    "render",
    "main",
]


def run_steal_selector(
    scale: str = "small",
    app_name: str = "5-CF",
    graphs: list[str] | None = None,
    executor: Executor | None = None,
) -> list[dict]:
    """Stealing-buffer victim selection vs the LFSR of [8]."""
    graphs = graphs if graphs is not None else ["p2p", "mico", "lj"]
    selectors = ("stealing_buffer", "random")
    cells = sweep(
        scale, app_name, graphs, "steal_victim_select", selectors, executor
    )
    return [
        {
            "graph": graph_name,
            "cycles_buffer": cell["stealing_buffer"]["cycles"],
            "cycles_random": cell["random"]["cycles"],
            "buffer_speedup": (
                cell["random"]["cycles"] / cell["stealing_buffer"]["cycles"]
            ),
            "steals_buffer": cell["stealing_buffer"]["steals"],
            "steals_random": cell["random"]["steals"],
        }
        for graph_name, cell in cells.items()
    ]


def run_rank_source(
    scale: str = "small",
    app_name: str = "5-CF",
    graphs: list[str] | None = None,
    memory_fraction: float = 0.10,
    executor: Executor | None = None,
) -> list[dict]:
    """ON1 ranks vs identity ranks (no reordering).

    Run under memory pressure (10% of the data on chip, as in Fig. 12) —
    with the whole graph resident the rank source cannot matter.
    """
    graphs = graphs if graphs is not None else ["p2p", "mico", "lj"]
    specs = {}
    for graph_name in graphs:
        budget = onchip_entries(graph_name, scale, memory_fraction)
        for on1 in (True, False):
            specs[graph_name, on1] = gramer_spec(
                app_name,
                graph_name,
                scale,
                params=None if on1 else {"use_on1_ranks": False},
                onchip_entries=budget,
            )
    cells = run_cells(specs, executor)
    rows = []
    for graph_name in graphs:
        on1, identity = cells[graph_name, True], cells[graph_name, False]
        rows.append(
            {
                "graph": graph_name,
                "on1_cycles": on1["cycles"],
                "identity_cycles": identity["cycles"],
                "on1_speedup": identity["cycles"] / on1["cycles"],
                "on1_vertex_hit": on1["vertex_hit_ratio"],
                "identity_vertex_hit": identity["vertex_hit_ratio"],
            }
        )
    return rows


def run_arbitrator_policy(
    scale: str = "small",
    app_name: str = "5-CF",
    graphs: list[str] | None = None,
) -> list[dict]:
    """Round-robin vs degree-balanced initial-embedding dispatch (§V-C)."""
    # Direct, not a cell spec: GramerBackend's detail has no load_imbalance.
    from repro.accel.sim import make_simulator

    graphs = graphs if graphs is not None else ["p2p", "mico", "lj"]
    rows = []
    for graph_name in graphs:
        graph = datasets.load(graph_name, scale)
        results = {}
        for policy in ("round_robin", "degree_balanced"):
            app = build_app(app_name, graph_name, scale)
            config = experiment_config(arbitrator=policy)
            results[policy] = make_simulator(graph, config).run(app)
        rows.append(
            {
                "graph": graph_name,
                "round_robin_cycles": results["round_robin"].cycles,
                "degree_balanced_cycles": results["degree_balanced"].cycles,
                "balanced_speedup": (
                    results["round_robin"].cycles
                    / results["degree_balanced"].cycles
                ),
                "imbalance_rr": results["round_robin"].stats.load_imbalance,
                "imbalance_db": (
                    results["degree_balanced"].stats.load_imbalance
                ),
            }
        )
    return rows


def run_partition_sweep(
    scale: str = "small",
    app_name: str = "5-CF",
    graph_name: str = "mico",
    partitions: tuple[int, ...] = (1, 2, 4, 8, 16),
    executor: Executor | None = None,
) -> list[dict]:
    """Memory partition count vs performance."""
    cells = sweep(
        scale, app_name, [graph_name], "num_partitions", partitions, executor
    )
    (row,) = normalized_rows(cells, partitions[0], "speedup_vs_1")
    return [
        {
            "graph": graph_name,
            "partitions": count,
            "cycles": row["cycles"][count],
            "speedup_vs_1": row["speedup_vs_1"][count],
        }
        for count in partitions
    ]


def run(
    scale: str = "small", executor: Executor | None = None
) -> dict[str, list[dict]]:
    """All four ablations, keyed as ``results.json`` stores them."""
    return {
        "steal_selector": run_steal_selector(scale, executor=executor),
        "rank_source": run_rank_source(scale, executor=executor),
        "arbitrator": run_arbitrator_policy(scale),
        "partitions": run_partition_sweep(scale, executor=executor),
    }


def render(data: dict[str, list[dict]]) -> str:
    """Format :func:`run`'s result as the four ablation tables."""
    steal_table = format_table(
        ["Graph", "Buffer cycles", "LFSR cycles", "Buffer speedup",
         "Steals (buf/rand)"],
        [
            [
                r["graph"], str(r["cycles_buffer"]), str(r["cycles_random"]),
                f"{r['buffer_speedup']:.2f}x",
                f"{r['steals_buffer']}/{r['steals_random']}",
            ]
            for r in data["steal_selector"]
        ],
    )
    rank_table = format_table(
        ["Graph", "ON1 cycles", "Identity cycles", "ON1 speedup",
         "Vertex hit (ON1/identity)"],
        [
            [
                r["graph"], str(r["on1_cycles"]), str(r["identity_cycles"]),
                f"{r['on1_speedup']:.2f}x",
                f"{r['on1_vertex_hit']:.3f}/{r['identity_vertex_hit']:.3f}",
            ]
            for r in data["rank_source"]
        ],
    )
    arb_table = format_table(
        ["Graph", "Round-robin", "Degree-balanced", "Balanced speedup",
         "Imbalance (rr/db)"],
        [
            [
                r["graph"],
                str(r["round_robin_cycles"]),
                str(r["degree_balanced_cycles"]),
                f"{r['balanced_speedup']:.2f}x",
                f"{r['imbalance_rr']:.2f}/{r['imbalance_db']:.2f}",
            ]
            for r in data["arbitrator"]
        ],
    )
    part_table = format_table(
        ["Partitions", "Cycles", "Speedup vs 1"],
        [
            [str(r["partitions"]), str(r["cycles"]), f"{r['speedup_vs_1']:.2f}x"]
            for r in data["partitions"]
        ],
    )
    return (
        "Ablation — steal-victim selection (stealing buffer vs LFSR [8])\n"
        + steal_table
        + "\n\nAblation — ON1 ranks vs identity (no reordering)\n"
        + rank_table
        + "\n\nAblation — arbitrator dispatch policy\n"
        + arb_table
        + "\n\nAblation — memory partition count (mico, 5-CF)\n"
        + part_table
    )


def main(scale: str = "small") -> str:
    """Run and render all four ablations."""
    return render(run(scale))


if __name__ == "__main__":
    print(main())
