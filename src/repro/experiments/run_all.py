"""Run every paper experiment and dump text + JSON results.

Usage::

    python -m repro.experiments.run_all --scale small --out results/ --jobs 4

Produces one text report per table/figure plus a combined ``results.json``
used to fill EXPERIMENTS.md.  Each experiment is computed once by its
module's ``run``; its text report is the module's ``render`` of the very
data written to ``results.json``.

The experiments run one after another, in report order.  Their cells (the
Table III grid and Fig. 11–14, DFS-vs-BFS and ablation sweeps) are job
specs submitted to one :class:`~repro.runtime.Executor`: it runs each
module's cells on ``--jobs N`` / ``GRAMER_JOBS`` forked claim/lease sweep
workers and memoizes them in the content-addressed artifact cache, so a
re-run recomputes only changed cells (``--no-cache`` forces fresh ones).
Output is deterministic regardless of worker count.
"""

from __future__ import annotations

import argparse
import json
import time
from importlib import import_module
from pathlib import Path
from types import ModuleType

from repro.obs.log import console
from repro.runtime.executor import Executor, resolve_jobs

from . import EXPERIMENTS, table3_runtime

__all__ = ["main", "EXPERIMENTS"]

#: Experiment name -> its module, in the canonical report order.
_MODULES: dict[str, ModuleType] = {
    name: import_module(f"{__package__}.{module}")
    for name, module in EXPERIMENTS.items()
}

#: Tables II and IV come from calibrated models with no graph input.
_SCALE_FREE = ("table2", "table4")

#: Modules whose ``run`` submits its cells through the shared executor.
_CELL_MODULES = ("fig12", "fig13", "fig14", "dfs_vs_bfs", "ablations")


def _compute(
    name: str, scale: str, executor: Executor, table3_cells: list | None
) -> object:
    """One experiment's data (``table3`` is computed by :func:`main`)."""
    module = _MODULES[name]
    if name in _SCALE_FREE:
        return module.run()
    if name == "fig11":
        return module.run(scale, cells=table3_cells, executor=executor)
    if name in _CELL_MODULES:
        return module.run(scale, executor=executor)
    return module.run(scale)


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
        help="claim/lease sweep workers over each experiment's cells "
             "(default: $GRAMER_JOBS or 1)",
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
    executor = Executor(
        jobs=resolve_jobs(args.jobs), use_cache=not args.no_cache
    )
    out_dir.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    table3_cells = None
    for name in EXPERIMENTS:
        if name not in selected:
            continue
        # A module that raises becomes a failure report, not an abort.
        try:
            if name == "table3":
                # Fig. 11 reuses these cells.
                table3_cells = table3_runtime.run(
                    args.scale, verbose=True, executor=executor
                )
                data = table3_runtime.speedup_rows(table3_cells)
            else:
                data = _compute(name, args.scale, executor, table3_cells)
            text = _MODULES[name].render(data)
        except Exception as exc:  # noqa: BLE001 - isolate failures
            error = f"{type(exc).__name__}: {exc}"
            text, data = f"{name} FAILED: {error}", {"error": error}
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
