"""Record ``golden.json``: the seed-0 results every workload is checked against.

``python3 perfbench/run.py --record-golden`` runs every cell of
``grid-cold``, ``grid-warm`` and ``sweep-jobs2`` once, inline and without
the job-result cache, plus one cold check of the frozen corpus, and
writes their deterministic fields.  The simulated numbers themselves are
locked by the repository's goldens; this file only lets the benchmark
notice a run that computes something else.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import (
    DATASETS,
    GOLDEN_PATH,
    GRID_COLD,
    GRID_WARM,
    SCALE,
    SWEEP_APPS,
    CheckCold,
    build_graphs,
    cell_label,
    grid_cells,
    reset_runtime,
    result_payload,
)


def record(work: Path) -> None:
    from repro.runtime.executor import run_spec
    from repro.runtime.spec import make_jobspec

    cells = sorted(
        set(GRID_COLD) | set(GRID_WARM) | set(grid_cells(SWEEP_APPS, DATASETS))
    )
    reset_runtime(work / "golden-cache")
    specs = [make_jobspec(b, a, dataset=g, scale=SCALE) for b, a, g in cells]
    build_graphs(specs)
    golden_cells = {}
    for (backend, app, graph), spec in zip(cells, specs):
        result = run_spec(spec, use_cache=False)
        if not result.ok:
            raise RuntimeError(f"{spec.label()} failed: {result.error}")
        golden_cells[cell_label(backend, app, graph)] = result_payload(result)

    check = CheckCold(0, work)
    check.setup(work / "golden-check")
    findings = sorted(
        row
        for cell in check.run_pass(0).cells
        if cell.key.startswith("root:")
        for row in json.loads(cell.payload)
    )
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(
            {"cells": golden_cells, "findings": findings},
            handle,
            indent=1,
            sort_keys=True,
        )
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden_cells)} cells, {len(findings)} findings)")
