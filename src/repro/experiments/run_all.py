"""Run every paper experiment and dump text + JSON results.

Usage::

    python -m repro.experiments.run_all --scale small --out results/ --jobs 4

Produces one text report per table/figure plus a combined ``results.json``
used to fill EXPERIMENTS.md.

Execution goes through :mod:`repro.runtime`: the Table III cell grid is
submitted as job specs to one :class:`~repro.runtime.Executor` (run on
``--jobs N`` / ``GRAMER_JOBS`` forked claim/lease sweep workers), the
remaining independent figure/table modules fan out over a module pool of
the same width, and
every completed cell is memoized in the content-addressed artifact cache —
re-running only recomputes changed cells (``--no-cache`` forces fresh
results).  Output order and report contents are deterministic regardless
of worker count.
"""

from __future__ import annotations

import argparse
import json
import time
from concurrent import futures as _futures
from pathlib import Path

from repro.obs.log import console
from repro.runtime.executor import Executor, resolve_jobs

from . import (
    ablations,
    dfs_vs_bfs,
    fig02_patterns,
    fig03_stalls,
    fig05_locality,
    fig08_heuristic,
    fig11_energy,
    fig12_lamh,
    fig13_pipeline,
    fig14_sensitivity,
    table2_resources,
    table3_runtime,
    table4_clock,
)

__all__ = ["main", "EXPERIMENTS"]

EXPERIMENTS = [
    "fig02", "fig03", "fig05", "fig08", "table2", "table3",
    "fig11", "fig12", "table4", "fig13", "fig14",
    "dfs_vs_bfs", "ablations",
]


def _compute_experiment(name: str, scale: str) -> tuple[str, object]:
    """One self-contained figure/table module -> (report text, data).

    Top-level so it can cross a process-pool boundary; ``table3`` and
    ``fig11`` are orchestrated by :func:`main` instead (they share cells).
    """
    if name == "fig02":
        return fig02_patterns.main(scale), fig02_patterns.run(scale)
    if name == "fig03":
        return fig03_stalls.main(scale), fig03_stalls.run(scale)
    if name == "fig05":
        return fig05_locality.main(scale), fig05_locality.run(scale)
    if name == "fig08":
        return fig08_heuristic.main(scale), fig08_heuristic.run(scale=scale)
    if name == "table2":
        return table2_resources.main(), table2_resources.run()
    if name == "fig12":
        return fig12_lamh.main(scale), fig12_lamh.run(scale)
    if name == "table4":
        return table4_clock.main(), table4_clock.run()
    if name == "fig13":
        return fig13_pipeline.main(scale), {
            "slot_sweep": fig13_pipeline.run_slot_sweep(scale),
            "work_stealing": fig13_pipeline.run_work_stealing(scale),
        }
    if name == "fig14":
        return fig14_sensitivity.main(scale), {
            "tau": fig14_sensitivity.run_tau_sweep(scale),
            "lambda": fig14_sensitivity.run_lambda_sweep(scale),
        }
    if name == "dfs_vs_bfs":
        return dfs_vs_bfs.main(scale), dfs_vs_bfs.run(scale)
    if name == "ablations":
        return ablations.main(scale), {
            "steal_selector": ablations.run_steal_selector(scale),
            "rank_source": ablations.run_rank_source(scale),
            "arbitrator": ablations.run_arbitrator_policy(scale),
            "partitions": ablations.run_partition_sweep(scale),
        }
    raise ValueError(f"unknown experiment {name!r}")


def _compute_modules(
    names: list[str], scale: str, jobs: int
) -> dict[str, tuple[str, object]]:
    """Run independent experiment modules, optionally across a pool.

    A module that raises is captured as a failure report instead of
    aborting the run — the same isolation contract as cell jobs.
    """
    outputs: dict[str, tuple[str, object]] = {}
    if jobs <= 1 or len(names) <= 1:
        for name in names:
            try:
                outputs[name] = _compute_experiment(name, scale)
            except Exception as exc:  # noqa: BLE001 - isolate failures
                outputs[name] = (
                    f"{name} FAILED: {type(exc).__name__}: {exc}",
                    {"error": f"{type(exc).__name__}: {exc}"},
                )
        return outputs
    with _futures.ProcessPoolExecutor(max_workers=min(jobs, len(names))) as pool:
        submitted = [
            (name, pool.submit(_compute_experiment, name, scale))
            for name in names
        ]
        for name, future in submitted:
            try:
                outputs[name] = future.result()
            except Exception as exc:  # noqa: BLE001
                outputs[name] = (
                    f"{name} FAILED: {type(exc).__name__}: {exc}",
                    {"error": f"{type(exc).__name__}: {exc}"},
                )
    return outputs


def main(argv: list[str] | None = None) -> None:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="small",
                        choices=["tiny", "small", "full"])
    parser.add_argument("--out", default="results")
    parser.add_argument(
        "--only", nargs="*", default=None,
        help=f"subset of experiments to run (choices: {EXPERIMENTS})",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="sweep workers for the cell grid, pool width for the "
             "figure modules (default: $GRAMER_JOBS or 1)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute every cell instead of reusing cached job results",
    )
    args = parser.parse_args(argv)
    selected = args.only if args.only else EXPERIMENTS
    jobs = resolve_jobs(args.jobs)
    executor = Executor(jobs=jobs, use_cache=not args.no_cache)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    # Merge into prior results so partial re-runs keep the other entries.
    payload: dict[str, object] = {}
    existing = out_dir / "results.json"
    if existing.exists():
        try:
            payload = json.loads(existing.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            payload = {}
    payload["scale"] = args.scale
    reports: dict[str, tuple[str, object]] = {}

    start = time.perf_counter()

    # Phase 1 — the shared-cell experiments: the Table III grid goes through
    # the job executor once; fig11 reuses those cells.
    table3_cells = None
    if "table3" in selected:
        table3_cells = table3_runtime.run(
            args.scale, verbose=True, executor=executor
        )
        rows = table3_runtime.speedup_rows(table3_cells)
        from .harness import format_seconds, format_table

        text = "Table III — running time, GRAMER vs Fractal vs RStream\n"
        text += format_table(
            ["App", "Graph", "GRAMER", "Fractal", "RStream",
             "vs Fractal (paper)", "vs RStream (paper)"],
            [
                [
                    r["app"], r["graph"],
                    format_seconds(r["gramer_s"]),
                    format_seconds(r["fractal_s"]),
                    format_seconds(r["rstream_s"]),
                    (f"{r['speedup_vs_fractal']:.2f}x" if r["speedup_vs_fractal"] else "N/A")
                    + (f" ({r['paper_speedup_vs_fractal']:.2f}x)" if r["paper_speedup_vs_fractal"] else " (N/A)"),
                    (f"{r['speedup_vs_rstream']:.2f}x" if r["speedup_vs_rstream"] else "N/A")
                    + (f" ({r['paper_speedup_vs_rstream']:.2f}x)" if r["paper_speedup_vs_rstream"] else " (N/A)"),
                ]
                for r in rows
            ],
        )
        reports["table3"] = (text, rows)

    # Phase 2 — independent figure/table modules fan out over the same
    # worker budget; each repeated cell inside them hits the artifact cache.
    independent = [
        name for name in selected if name not in ("table3", "fig11")
    ]
    reports.update(_compute_modules(independent, args.scale, jobs))

    # Phase 3 — fig11 (energy + total time), reusing table3's cells when
    # available, the artifact cache otherwise.
    if "fig11" in selected:
        energy = fig11_energy.run_energy(args.scale, cells=table3_cells)
        total = fig11_energy.run_total_time(args.scale)
        reports["fig11"] = (
            fig11_energy.main(args.scale)
            if table3_cells is None
            else _fig11_text(energy, total),
            {"energy": energy, "total_time": total},
        )

    # Emit in canonical order so reports read identically at any --jobs.
    for name in EXPERIMENTS:
        if name not in reports:
            continue
        text, data = reports[name]
        console(f"\n{'=' * 72}\n{text}")
        payload[name] = data
        (out_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")

    payload["wall_seconds"] = time.perf_counter() - start
    with open(out_dir / "results.json", "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, default=str)
    console(
        f"\nCompleted {len(selected)} experiments in "
        f"{payload['wall_seconds']:.0f}s; results under {out_dir}/"
    )


def _fig11_text(energy: list[dict], total: list[dict]) -> str:
    from .harness import format_table

    energy_table = format_table(
        ["Graph", "Fractal (min/mean/max)", "RStream (min/mean/max)"],
        [
            [
                r["graph"],
                f"{r.get('fractal_min', 0):.1f}/{r.get('fractal_mean', 0):.1f}/{r.get('fractal_max', 0):.1f}x",
                (
                    f"{r['rstream_min']:.1f}/{r['rstream_mean']:.1f}/{r['rstream_max']:.1f}x"
                    if "rstream_min" in r
                    else "N/A"
                ),
            ]
            for r in energy
        ],
    )
    time_table = format_table(
        ["Graph", "Exec", "Preproc", "Preproc share", "Fractal", "RStream"],
        [
            [
                r["graph"],
                f"{r['gramer_exec_s']*1e3:.1f}ms",
                f"{r['gramer_preproc_s']*1e3:.2f}ms",
                f"{r['preproc_fraction']:.1%}",
                f"{(r['fractal_s'] or 0)*1e3:.1f}ms",
                f"{(r['rstream_s'] or 0)*1e3:.1f}ms" if r["rstream_s"] else "N/A",
            ]
            for r in total
        ],
    )
    return (
        "Fig. 11 (a) baseline energy normalised to GRAMER\n" + energy_table
        + "\n\nFig. 11 (b) total time including preprocessing (4-MC)\n"
        + time_table
    )


if __name__ == "__main__":
    main()
