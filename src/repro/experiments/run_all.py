"""Run every paper experiment and dump text + JSON results.

Usage::

    python -m repro.experiments.run_all --scale small --out results/ --jobs 4

Produces one text report per table/figure plus a combined ``results.json``
used to fill EXPERIMENTS.md.  Each experiment is computed once by its
module's ``run``; its text report is the module's ``render`` of the very
data written to ``results.json``.

Execution goes through :mod:`repro.runtime`: the Table III cell grid is
submitted as job specs to one :class:`~repro.runtime.Executor` (run on
``--jobs N`` / ``GRAMER_JOBS`` forked claim/lease sweep workers), Fig. 11
reuses those cells, the remaining independent modules fan out over a
module pool of the same width, and every completed cell is memoized in the
content-addressed artifact cache — re-running only recomputes changed
cells (``--no-cache`` forces fresh results).  Output order and report
contents are deterministic regardless of worker count.
"""

from __future__ import annotations

import argparse
import json
import time
from concurrent import futures as _futures
from importlib import import_module
from pathlib import Path
from types import ModuleType

from repro.obs.log import console
from repro.runtime.executor import Executor, resolve_jobs

from . import EXPERIMENTS, fig11_energy, table3_runtime

__all__ = ["main", "EXPERIMENTS"]

#: Experiment name -> its module, in the canonical report order.
_MODULES: dict[str, ModuleType] = {
    name: import_module(f"{__package__}.{module}")
    for name, module in EXPERIMENTS.items()
}

#: Tables II and IV come from calibrated models with no graph input.
_SCALE_FREE = ("table2", "table4")


def _compute_experiment(name: str, scale: str) -> tuple[str, object]:
    """One self-contained figure/table module -> (report text, data).

    Top-level so it can cross a process-pool boundary; ``table3`` and
    ``fig11`` are orchestrated by :func:`main` instead (they share cells).
    """
    module = _MODULES[name]
    data = module.run() if name in _SCALE_FREE else module.run(scale)
    return module.render(data), data


def _failure(name: str, exc: Exception) -> tuple[str, object]:
    error = f"{type(exc).__name__}: {exc}"
    return f"{name} FAILED: {error}", {"error": error}


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
                outputs[name] = _failure(name, exc)
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
                outputs[name] = _failure(name, exc)
    return outputs


def main(argv: list[str] | None = None) -> None:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="small",
                        choices=["tiny", "small", "full"])
    parser.add_argument("--out", default="results")
    parser.add_argument(
        "--only", nargs="*", default=None, choices=EXPERIMENTS,
        help="subset of experiments to run",
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
    out_dir = Path(args.out)

    # A partial run merges into the prior results so the other entries
    # stay; the file then keeps its scale and its full run's wall time.
    payload: dict[str, object] = {}
    existing = out_dir / "results.json"
    partial = set(selected) != set(EXPERIMENTS)
    if partial and existing.exists():
        try:
            payload = json.loads(existing.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            payload = {}
        prior_scale = payload.get("scale", args.scale)
        if prior_scale != args.scale:
            parser.error(
                f"{existing} holds --scale {prior_scale} results; a partial "
                f"--scale {args.scale} run cannot merge into it (use another "
                "--out, or run every experiment)"
            )
    payload["scale"] = args.scale
    jobs = resolve_jobs(args.jobs)
    executor = Executor(jobs=jobs, use_cache=not args.no_cache)
    out_dir.mkdir(parents=True, exist_ok=True)
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
        reports["table3"] = (table3_runtime.render(rows), rows)

    # Phase 2 — independent figure/table modules fan out over the same
    # worker budget; each repeated cell inside them hits the artifact cache.
    independent = [
        name for name in selected if name not in ("table3", "fig11")
    ]
    reports.update(_compute_modules(independent, args.scale, jobs))

    # Phase 3 — fig11 (energy + total time), reusing table3's cells when
    # available, the artifact cache otherwise.
    if "fig11" in selected:
        fig11 = fig11_energy.run(args.scale, cells=table3_cells)
        reports["fig11"] = (fig11_energy.render(fig11), fig11)

    # Emit in canonical order so reports read identically at any --jobs.
    for name in EXPERIMENTS:
        if name not in reports:
            continue
        text, data = reports[name]
        console(f"\n{'=' * 72}\n{text}")
        payload[name] = data
        (out_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")

    wall_seconds = time.perf_counter() - start
    payload.setdefault("wall_seconds", wall_seconds)
    with open(out_dir / "results.json", "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, default=str)
    console(
        f"\nCompleted {len(selected)} experiments in "
        f"{wall_seconds:.0f}s; results under {out_dir}/"
    )


if __name__ == "__main__":
    main()
