"""Fig. 13 — PU pipelining and work stealing (5-CF).

(a) Performance vs the number of pipeline slot IDs (1..16), normalised to
one slot: near-linear to 8 slots, diminishing beyond (memory-partition
pressure).
(b) Performance with vs without work stealing: the paper reports
1.32×–1.90×, with the most skewed graph (Mico) benefiting most.
"""

from __future__ import annotations

from repro.runtime.executor import Executor

from .harness import format_table, normalized_rows, sweep
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
    executor: Executor | None = None,
) -> list[dict]:
    """Per graph: cycles at each slot count, normalised to 1 slot."""
    graphs = graphs if graphs is not None else list(DATASET_ORDER)
    cells = sweep(scale, app_name, graphs, "slots_per_pu", SLOT_COUNTS, executor)
    return normalized_rows(cells, SLOT_COUNTS[0], "speedup")


def run_work_stealing(
    scale: str = "small",
    app_name: str = "5-CF",
    graphs: list[str] | None = None,
    executor: Executor | None = None,
) -> list[dict]:
    """Per graph: cycles with/without stealing and the resulting speedup."""
    graphs = graphs if graphs is not None else list(DATASET_ORDER)
    cells = sweep(scale, app_name, graphs, "work_stealing", (False, True), executor)
    return [
        {
            "graph": graph_name,
            "cycles_without": cell[False]["cycles"],
            "cycles_with": cell[True]["cycles"],
            "speedup": cell[False]["cycles"] / cell[True]["cycles"],
            "steals": cell[True]["steals"],
        }
        for graph_name, cell in cells.items()
    ]


def run(
    scale: str = "small", executor: Executor | None = None
) -> dict[str, list[dict]]:
    """Both panels: ``slot_sweep`` (a) and ``work_stealing`` (b)."""
    return {
        "slot_sweep": run_slot_sweep(scale, executor=executor),
        "work_stealing": run_work_stealing(scale, executor=executor),
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
