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

from repro.accel.sim import make_simulator

from . import datasets
from .harness import build_app, experiment_config, format_table

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
) -> list[dict]:
    """Stealing-buffer victim selection vs the LFSR of [8]."""
    graphs = graphs if graphs is not None else ["p2p", "mico", "lj"]
    rows = []
    for graph_name in graphs:
        graph = datasets.load(graph_name, scale)
        cycles = {}
        steals = {}
        for selector in ("stealing_buffer", "random"):
            app = build_app(app_name, graph_name, scale)
            config = experiment_config(steal_victim_select=selector)
            result = make_simulator(graph, config).run(app)
            cycles[selector] = result.cycles
            steals[selector] = result.stats.steals
        rows.append(
            {
                "graph": graph_name,
                "cycles_buffer": cycles["stealing_buffer"],
                "cycles_random": cycles["random"],
                "buffer_speedup": cycles["random"] / cycles["stealing_buffer"],
                "steals_buffer": steals["stealing_buffer"],
                "steals_random": steals["random"],
            }
        )
    return rows


def run_rank_source(
    scale: str = "small",
    app_name: str = "5-CF",
    graphs: list[str] | None = None,
    memory_fraction: float = 0.10,
) -> list[dict]:
    """ON1 ranks vs identity ranks (no reordering).

    Run under memory pressure (10% of the data on chip, as in Fig. 12) —
    with the whole graph resident the rank source cannot matter.
    """
    graphs = graphs if graphs is not None else ["p2p", "mico", "lj"]
    rows = []
    for graph_name in graphs:
        graph = datasets.load(graph_name, scale)
        budget = max(
            64,
            int(memory_fraction * (graph.num_vertices + len(graph.neighbors))),
        )
        results = {}
        for label, use_on1 in (("on1", True), ("identity", False)):
            app = build_app(app_name, graph_name, scale)
            sim = make_simulator(
                graph,
                experiment_config(onchip_entries=budget),
                use_on1_ranks=use_on1,
            )
            results[label] = sim.run(app)
        rows.append(
            {
                "graph": graph_name,
                "on1_cycles": results["on1"].cycles,
                "identity_cycles": results["identity"].cycles,
                "on1_speedup": (
                    results["identity"].cycles / results["on1"].cycles
                ),
                "on1_vertex_hit": results["on1"].stats.vertex_hit_ratio,
                "identity_vertex_hit": (
                    results["identity"].stats.vertex_hit_ratio
                ),
            }
        )
    return rows


def run_arbitrator_policy(
    scale: str = "small",
    app_name: str = "5-CF",
    graphs: list[str] | None = None,
) -> list[dict]:
    """Round-robin vs degree-balanced initial-embedding dispatch (§V-C)."""
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
) -> list[dict]:
    """Memory partition count vs performance."""
    graph = datasets.load(graph_name, scale)
    rows = []
    base_cycles = None
    for count in partitions:
        app = build_app(app_name, graph_name, scale)
        config = experiment_config(num_partitions=count)
        cycles = make_simulator(graph, config).run(app).cycles
        if base_cycles is None:
            base_cycles = cycles
        rows.append(
            {
                "graph": graph_name,
                "partitions": count,
                "cycles": cycles,
                "speedup_vs_1": base_cycles / cycles,
            }
        )
    return rows


def run(scale: str = "small") -> dict[str, list[dict]]:
    """All four ablations, keyed as ``results.json`` stores them."""
    return {
        "steal_selector": run_steal_selector(scale),
        "rank_source": run_rank_source(scale),
        "arbitrator": run_arbitrator_policy(scale),
        "partitions": run_partition_sweep(scale),
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
