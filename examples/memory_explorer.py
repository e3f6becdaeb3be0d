"""Explore the locality-aware memory hierarchy's design space.

Sweeps the knobs of GRAMER's memory system on one workload — replacement
policy, τ (pinned share), on-chip capacity — and prints how hit ratios and
cycles respond.  A hands-on tour of §IV and Figs. 12/14.

Run with::

    python examples/memory_explorer.py [--tiny]
"""

import argparse

from repro.accel import GramerConfig, make_simulator
from repro.graph import powerlaw_cluster
from repro.locality import locality_curve, IterationTrace
from repro.mining import MotifCounting, run_dfs


def run(graph, **config_kwargs):
    config = GramerConfig(**config_kwargs)
    result = make_simulator(graph, config).run(MotifCounting(4))
    return result


def main(tiny: bool = False) -> None:
    # --tiny keeps every section but runs each simulation in under a second.
    n, m = (60, 3) if tiny else (900, 4)
    graph = powerlaw_cluster(n, m, 0.6, seed=3, max_degree=40)
    data_entries = graph.num_vertices + len(graph.neighbors)

    # How concentrated is this workload's traffic?  (the Fig. 5 view)
    trace = IterationTrace(graph.num_vertices)
    run_dfs(graph, MotifCounting(4), mem=trace)
    curve = locality_curve(graph, trace, fraction=0.05)
    print("top-5% access share by iteration:")
    for iteration in sorted(curve.vertex_share_by_iteration):
        print(
            f"  iter {iteration}: vertices "
            f"{curve.vertex_share_by_iteration[iteration]:.1%}, edges "
            f"{curve.edge_share_by_iteration[iteration]:.1%}"
        )

    budget = data_entries // 10
    print(f"\npolicy comparison at 10% on-chip memory ({budget} entries):")
    for policy in ("uniform", "lru", "locality"):
        r = run(graph, onchip_entries=budget, low_policy=policy)
        print(
            f"  {policy:9s} vertex hit {r.stats.vertex_hit_ratio:.3f}  "
            f"edge hit {r.stats.edge_hit_ratio:.3f}  cycles {r.cycles:>11,}"
        )

    print("\ntau sweep (memory sized so tau=50% holds the whole graph):")
    for tau in (0.01, 0.05, 0.20, 0.50):
        r = run(graph, onchip_entries=2 * data_entries, tau=tau)
        print(
            f"  tau={tau:4.0%}  vertex hit {r.stats.vertex_hit_ratio:.3f}  "
            f"edge hit {r.stats.edge_hit_ratio:.3f}  cycles {r.cycles:>11,}"
        )

    print("\ncapacity sweep (paper rule for tau):")
    for divisor in (50, 20, 10, 4, 1):
        r = run(graph, onchip_entries=max(64, data_entries // divisor))
        print(
            f"  {100 // divisor:3d}% of data on chip -> "
            f"DRAM accesses {r.stats.dram_accesses:>9,}  "
            f"cycles {r.cycles:>11,}"
        )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the graph (used by the smoke tests)")
    main(tiny=parser.parse_args().tiny)
