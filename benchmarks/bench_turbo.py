"""Measure the turbo engine against reference and fast on the tiny grid.

Runs every (app, dataset) cell of the Table III tiny grid once per engine,
wall-clock timed.  The "reference" column times the per-event oracle
(``tests/differential/engine_oracle.py``'s ``ReferenceSimulator``), the
"fast" column the exact engine ``make_simulator`` builds.  While timing,
each cell's turbo result is checked against the oracle under the
tiny-grid tolerance spec (mining counts exact, timing/energy inside the
declared bands) — a benchmark of a wrong engine is worthless, so
divergence aborts the record.

Run with::

    PYTHONPATH=src python benchmarks/bench_turbo.py [--repeat N] [--smoke]

``--smoke`` additionally gates on the acceptance floor: turbo must be
>= 3x the per-event oracle on the grid total (CI runs this in the turbo
job).  The JSON record is written either way so the CI artifact always
reflects the measured run.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.accel.config import GramerConfig
from repro.accel.sim import make_simulator
from repro.experiments import datasets
from repro.experiments.paper_data import TABLE3_APPS
from repro.runtime.backends import build_app

from tests.differential.engine_oracle import ReferenceSimulator
from tests.differential.tolerance import TINY_GRID_SPEC, assert_within_tolerance

OUT_PATH = Path(__file__).parent / "BENCH_turbo.json"
ENGINES_TIMED = ("reference", "fast", "turbo")
SPEEDUP_FLOOR = 3.0


def time_cell(app_name: str, graph_name: str, engine: str, repeat: int):
    app = build_app(app_name, graph_name, "tiny")
    loader = datasets.load_labeled if app.needs_labels else datasets.load
    graph = loader(graph_name, "tiny")
    best = None
    snapshot = None
    for _ in range(repeat):
        cell_app = build_app(app_name, graph_name, "tiny")
        start = time.perf_counter()
        if engine == "reference":
            sim = ReferenceSimulator(graph, GramerConfig())
        else:
            sim = make_simulator(graph, GramerConfig(), engine=engine)
        result = sim.run(cell_app)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
        snapshot = {
            "stats": result.stats.as_dict(),
            "embeddings": result.mining.embeddings_by_size,
            "patterns": result.mining.patterns_by_size,
            "candidates": cell_app.candidates_checked,
        }
    return best, snapshot


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=1,
                        help="timed runs per cell; best-of is recorded")
    parser.add_argument("--smoke", action="store_true",
                        help=f"also gate turbo >= {SPEEDUP_FLOOR}x reference "
                             "on the grid total (CI gate)")
    args = parser.parse_args()

    cells = []
    totals = dict.fromkeys(ENGINES_TIMED, 0.0)
    for app_name in TABLE3_APPS:
        for graph_name in datasets.DATASET_ORDER:
            row = {"app": app_name, "graph": graph_name}
            snaps = {}
            for engine in ENGINES_TIMED:
                wall, snaps[engine] = time_cell(
                    app_name, graph_name, engine, args.repeat
                )
                row[f"{engine}_wall_s"] = round(wall, 4)
                totals[engine] += wall
            # A benchmark of a diverged engine is worthless: enforce the
            # tolerance contract on every cell while timing.
            assert_within_tolerance(
                TINY_GRID_SPEC,
                snaps["reference"],
                snaps["turbo"],
                context=f"{app_name}/{graph_name}",
            )
            row["speedup_vs_reference"] = round(
                row["reference_wall_s"] / row["turbo_wall_s"], 3
            )
            row["speedup_vs_fast"] = round(
                row["fast_wall_s"] / row["turbo_wall_s"], 3
            )
            cells.append(row)
            print(
                f"{app_name:5s} {graph_name:9s} "
                f"ref {row['reference_wall_s']:7.3f}s  "
                f"fast {row['fast_wall_s']:7.3f}s  "
                f"turbo {row['turbo_wall_s']:7.3f}s  "
                f"{row['speedup_vs_reference']:.2f}x ref / "
                f"{row['speedup_vs_fast']:.2f}x fast"
            )

    speedup_ref = totals["reference"] / totals["turbo"]
    speedup_fast = totals["fast"] / totals["turbo"]
    print(
        f"\ntotal: ref {totals['reference']:.2f}s  fast {totals['fast']:.2f}s"
        f"  turbo {totals['turbo']:.2f}s"
        f"  speedup {speedup_ref:.2f}x ref / {speedup_fast:.2f}x fast"
    )

    record = {
        "benchmark": "turbo vs reference and fast, Table III tiny grid",
        "grid": {
            "apps": list(TABLE3_APPS),
            "datasets": list(datasets.DATASET_ORDER),
            "scale": "tiny",
        },
        "repeat": args.repeat,
        "reference_total_s": round(totals["reference"], 3),
        "fast_total_s": round(totals["fast"], 3),
        "turbo_total_s": round(totals["turbo"], 3),
        "speedup_vs_reference": round(speedup_ref, 3),
        "speedup_vs_fast": round(speedup_fast, 3),
        "tolerance_spec": TINY_GRID_SPEC.name,
        "note": (
            "Turbo decouples the timing model from the functional mining "
            "pass (docs/turbo.md): mining counts and exception behaviour "
            "stay exact (asserted while timing, along with the per-field "
            "timing bands of tests/differential/tolerance.py), which "
            "frees the engine from the sequential global event order "
            "the exact engine keeps. 'reference' times the per-event "
            "oracle of tests/differential/engine_oracle.py, 'fast' the "
            "exact engine."
        ),
        "cells": cells,
    }
    OUT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")

    if args.smoke:
        if speedup_ref < SPEEDUP_FLOOR:
            raise SystemExit(
                f"turbo grid-total speedup {speedup_ref:.2f}x is below the "
                f"{SPEEDUP_FLOOR}x floor vs the per-event oracle"
            )
        print(f"smoke gate passed: {speedup_ref:.2f}x >= {SPEEDUP_FLOOR}x")


if __name__ == "__main__":
    main()
