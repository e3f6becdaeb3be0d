"""Table II — FPGA resource utilization and clock rate.

Produced by the calibrated resource/clock models (no synthesis toolchain —
see DESIGN.md): per application, LUT / register / BRAM utilization on the
XCU250 and the achievable clock.
"""

from __future__ import annotations

from repro.accel.config import GramerConfig
from repro.accel.resources import PAPER_ONCHIP_ENTRIES, estimate_resources

from .harness import format_table
from .paper_data import TABLE2_UTILIZATION

__all__ = ["run", "render", "main"]


def run() -> list[dict]:
    """One row per application, model vs paper."""
    config = GramerConfig(onchip_entries=PAPER_ONCHIP_ENTRIES)
    rows = []
    for app in ("CF", "FSM", "MC"):
        report = estimate_resources(config, app)
        paper = TABLE2_UTILIZATION[app]
        rows.append(
            {
                "app": app,
                "lut": report.lut_utilization,
                "register": report.register_utilization,
                "bram": report.bram_utilization,
                "clock_mhz": report.clock_mhz,
                "paper_lut": paper["LUT"],
                "paper_register": paper["Register"],
                "paper_bram": paper["BRAM"],
                "paper_clock_mhz": paper["Clock"],
            }
        )
    return rows


def render(rows: list[dict]) -> str:
    """Format :func:`run`'s rows as Table II (model | paper)."""
    table = format_table(
        ["", "CF", "FSM", "MC"],
        [
            ["LUT"] + [f"{r['lut']:.2%} ({r['paper_lut']:.2%})" for r in rows],
            ["Register"]
            + [
                f"{r['register']:.2%} ({r['paper_register']:.2%})"
                for r in rows
            ],
            ["BRAM"]
            + [f"{r['bram']:.2%} ({r['paper_bram']:.2%})" for r in rows],
            ["Clock Rate"]
            + [
                f"{r['clock_mhz']:.0f}MHz ({r['paper_clock_mhz']:.0f}MHz)"
                for r in rows
            ],
        ],
    )
    return "Table II — resource utilization, model (paper)\n" + table


def main() -> str:
    """Run and render Table II (model | paper)."""
    return render(run())


if __name__ == "__main__":
    print(main())
