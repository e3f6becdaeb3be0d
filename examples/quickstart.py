"""Quickstart: mine a graph in software, then on the GRAMER simulator.

Builds a small power-law graph, counts its triangles and 3-vertex motifs
with the software engine, then runs the same workload on the cycle-level
GRAMER model and reports performance and memory behaviour.

Run with::

    python examples/quickstart.py [--tiny]
"""

import argparse

from repro.accel import GramerConfig, gramer_energy, make_simulator
from repro.graph import degree_stats, powerlaw_cluster
from repro.mining import CliqueFinding, MotifCounting, run_dfs


def main(tiny: bool = False) -> None:
    # 1. A synthetic real-world-like graph (power-law degrees, clustering).
    graph = powerlaw_cluster(
        num_vertices=300 if tiny else 2_000,
        edges_per_vertex=3,
        triad_probability=0.4,
        seed=42,
    )
    print("graph:", degree_stats(graph).describe())

    # 2. Software mining: triangles, then the full 3-vertex motif census.
    triangles = run_dfs(graph, CliqueFinding(3))
    print(f"\ntriangles: {triangles.num_cliques}")

    motifs = run_dfs(graph, MotifCounting(3))
    print("3-vertex motif census:")
    for name, count in sorted(motifs.named_census().items()):
        print(f"  {name:10s} {count:>10,}")

    # 3. The same workload on the GRAMER accelerator model: 8 PUs x 16
    #    slots, locality-aware memory hierarchy sized to ~25% of the graph.
    config = GramerConfig(
        onchip_entries=(graph.num_vertices + len(graph.neighbors)) // 4
    )
    simulator = make_simulator(graph, config)
    result = simulator.run(MotifCounting(3))
    stats = result.stats

    print(f"\nGRAMER @ {config.clock_mhz:.0f} MHz")
    print(f"  cycles            {result.cycles:>12,}")
    print(f"  time              {result.seconds * 1e3:>12.3f} ms")
    print(f"  vertex hit ratio  {stats.vertex_hit_ratio:>12.1%}")
    print(f"  edge hit ratio    {stats.edge_hit_ratio:>12.1%}")
    print(f"  DRAM accesses     {stats.dram_accesses:>12,}")
    print(f"  work steals       {stats.steals:>12,}")
    energy = gramer_energy(stats, config)
    print(f"  on-chip energy    {energy.total_j * 1e3:>12.3f} mJ")

    # The simulator is functionally exact: same counts as the software run.
    assert result.mining.patterns_by_size == motifs.result().patterns_by_size
    print("\nsimulator counts verified against the software engine ✓")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the graph (used by the smoke tests)")
    main(tiny=parser.parse_args().tiny)
