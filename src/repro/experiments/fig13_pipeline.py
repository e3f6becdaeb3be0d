"""Fig. 13 — PU pipelining and work stealing (5-CF).

(a) Performance vs the number of pipeline slot IDs (1..16), normalised to
one slot: near-linear to 8 slots, diminishing beyond (memory-partition
pressure).
(b) Performance with vs without work stealing: the paper reports
1.32×–1.90×, with the most skewed graph (Mico) benefiting most.
"""

from __future__ import annotations

from repro.accel.sim import make_simulator

from . import datasets
from .harness import build_app, experiment_config, format_table
from .datasets import DATASET_ORDER

__all__ = [
    "run",
    "run_slot_sweep",
    "run_work_stealing",
    "render",
    "main",
    "SLOT_COUNTS",
]

SLOT_COUNTS = (1, 2, 4, 8, 16)


def run_slot_sweep(
    scale: str = "small",
    app_name: str = "5-CF",
    graphs: list[str] | None = None,
) -> list[dict]:
    """Per graph: cycles at each slot count, normalised to 1 slot."""
    graphs = graphs if graphs is not None else list(DATASET_ORDER)
    rows = []
    for graph_name in graphs:
        graph = datasets.load(graph_name, scale)
        cycles = {}
        for slots in SLOT_COUNTS:
            app = build_app(app_name, graph_name, scale)
            config = experiment_config(slots_per_pu=slots)
            cycles[slots] = make_simulator(graph, config).run(app).cycles
        rows.append(
            {
                "graph": graph_name,
                "cycles": cycles,
                "speedup": {
                    s: cycles[SLOT_COUNTS[0]] / c for s, c in cycles.items()
                },
            }
        )
    return rows


def run_work_stealing(
    scale: str = "small",
    app_name: str = "5-CF",
    graphs: list[str] | None = None,
) -> list[dict]:
    """Per graph: cycles with/without stealing and the resulting speedup."""
    graphs = graphs if graphs is not None else list(DATASET_ORDER)
    rows = []
    for graph_name in graphs:
        graph = datasets.load(graph_name, scale)
        cycles = {}
        steals = 0
        for stealing in (False, True):
            app = build_app(app_name, graph_name, scale)
            config = experiment_config(work_stealing=stealing)
            result = make_simulator(graph, config).run(app)
            cycles[stealing] = result.cycles
            if stealing:
                steals = result.stats.steals
        rows.append(
            {
                "graph": graph_name,
                "cycles_without": cycles[False],
                "cycles_with": cycles[True],
                "speedup": cycles[False] / cycles[True],
                "steals": steals,
            }
        )
    return rows


def run(scale: str = "small") -> dict[str, list[dict]]:
    """Both panels: ``slot_sweep`` (a) and ``work_stealing`` (b)."""
    return {
        "slot_sweep": run_slot_sweep(scale),
        "work_stealing": run_work_stealing(scale),
    }


def render(data: dict[str, list[dict]]) -> str:
    """Format :func:`run`'s result as both panels of Fig. 13."""
    sweep_table = format_table(
        ["Graph"] + [f"{s} slots" for s in SLOT_COUNTS],
        [
            [r["graph"]]
            + [f"{r['speedup'][s]:.2f}x" for s in SLOT_COUNTS]
            for r in data["slot_sweep"]
        ],
    )
    steal_table = format_table(
        ["Graph", "w/o stealing", "w/ stealing", "Speedup", "Steals"],
        [
            [
                r["graph"],
                str(r["cycles_without"]),
                str(r["cycles_with"]),
                f"{r['speedup']:.2f}x",
                str(r["steals"]),
            ]
            for r in data["work_stealing"]
        ],
    )
    return (
        "Fig. 13 (a) speedup vs pipeline slots (5-CF)\n" + sweep_table
        + "\n\nFig. 13 (b) work stealing (5-CF)\n" + steal_table
    )


def main(scale: str = "small") -> str:
    """Run and render both panels of Fig. 13."""
    return render(run(scale))


if __name__ == "__main__":
    print(main())
