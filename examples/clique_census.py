"""Clique finding across systems: GRAMER vs the Fractal/RStream models.

Mines k-cliques (k = 3, 4, 5) on a clustered power-law graph — the paper's
CF workload — on all three systems, verifying they agree and reporting the
modeled runtimes and energies side by side (a miniature Table III cell).

Run with::

    python examples/clique_census.py [--tiny]
"""

import argparse

from repro.accel import GramerConfig, cpu_energy, gramer_energy, make_simulator
from repro.baselines import FractalModel, RStreamModel
from repro.graph import powerlaw_cluster
from repro.mining import CliqueFinding


def main(tiny: bool = False) -> None:
    graph = powerlaw_cluster(
        num_vertices=400 if tiny else 1_500, edges_per_vertex=4,
        triad_probability=0.6, seed=7, max_degree=45,
    )
    config = GramerConfig(
        onchip_entries=(graph.num_vertices + len(graph.neighbors)) // 6
    )

    print(f"{'k':>2s}  {'cliques':>10s}  {'GRAMER':>10s}  {'Fractal':>10s}  "
          f"{'RStream':>10s}  {'speedup':>14s}  {'energy save':>11s}")
    for k in (3, 4, 5):
        sim = make_simulator(graph, config).run(CliqueFinding(k))
        fractal = FractalModel().run(graph, CliqueFinding(k))
        rstream = RStreamModel().run(graph, CliqueFinding(k))

        counts = {
            sim.mining.summary["num_cliques"],
            fractal.mining.summary["num_cliques"],
            rstream.mining.summary["num_cliques"],
        }
        assert len(counts) == 1, "systems disagree on clique counts"

        gramer_j = gramer_energy(sim.stats, config).total_j
        fractal_j = cpu_energy(fractal.seconds)
        print(
            f"{k:>2d}  {sim.mining.summary['num_cliques']:>10,}  "
            f"{sim.seconds * 1e3:>8.2f}ms  "
            f"{fractal.seconds * 1e3:>8.2f}ms  "
            f"{rstream.seconds * 1e3:>8.2f}ms  "
            f"{fractal.seconds / sim.seconds:>7.1f}x vs F  "
            f"{fractal_j / gramer_j:>9.1f}x"
        )

    print("\nall three systems agree on every clique count ✓")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the graph (used by the smoke tests)")
    main(tiny=parser.parse_args().tiny)
