"""Table IV — clock rate with and without ancestor buffers / compaction.

Produced by the calibrated critical-path model (see
``repro.accel.clockmodel``): the structural claim is that dedicated ancestor
buffers raise the clock (~+23%) and record compaction raises it much
further (~+116%).
"""

from __future__ import annotations

from repro.accel.clockmodel import table4_design_points

from .harness import format_table
from .paper_data import TABLE4_CLOCK_MHZ

__all__ = ["run", "render", "main"]


def run() -> list[dict]:
    """One row per design point, model vs paper."""
    grid = table4_design_points()
    rows = []
    for design, model_row in grid.items():
        paper_row = TABLE4_CLOCK_MHZ[design]
        rows.append(
            {
                "design": design,
                "model": model_row,
                "paper": paper_row,
            }
        )
    return rows


def render(rows: list[dict]) -> str:
    """Format :func:`run`'s rows as Table IV (model | paper)."""
    table = format_table(
        ["Design", "CF", "FSM", "MC"],
        [
            [
                r["design"],
                *(
                    f"{r['model'][app]:.0f}MHz ({r['paper'][app]:.0f}MHz)"
                    for app in ("CF", "FSM", "MC")
                ),
            ]
            for r in rows
        ],
    )
    return "Table IV — clock rate, model (paper)\n" + table


def main() -> str:
    """Run and render Table IV (model | paper)."""
    return render(run())


if __name__ == "__main__":
    print(main())
