"""Shared experiment harness.

Every ``figNN_*``/``tableN_*`` module produces plain-dict rows through the
helpers here.  A cell is a :class:`~repro.runtime.spec.JobSpec` run by a
:mod:`repro.runtime` backend (cell semantics such as fixed overheads and
energy live in :mod:`repro.runtime.backends`), and its outcome is the
backend's :class:`~repro.runtime.spec.JobResult`: :func:`run_jobs`,
:func:`run_cells` and :func:`sweep` submit a figure's cells through one
:class:`~repro.runtime.executor.Executor` (artifact cache included).
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.runtime.backends import build_app, experiment_config
from repro.runtime.executor import Executor
from repro.runtime.spec import JobResult, JobSpec, json_safe_keys, make_jobspec

from . import datasets

__all__ = [
    "experiment_config",
    "build_app",
    "cell_jobspec",
    "gramer_spec",
    "onchip_entries",
    "run_jobs",
    "run_cells",
    "sweep",
    "normalized_rows",
    "format_table",
    "format_seconds",
    "save_results",
]


def cell_jobspec(
    backend: str,
    app_name: str,
    graph_name: str,
    scale: str = "small",
    config: dict | None = None,
    params: dict | None = None,
) -> JobSpec:
    """Build the JobSpec for one Table III-style cell."""
    return make_jobspec(
        backend,
        app_name,
        dataset=graph_name,
        scale=scale,
        config=config,
        params=params,
    )


def gramer_spec(
    app_name: str,
    graph_name: str,
    scale: str = "small",
    params: dict | None = None,
    **overrides,
) -> JobSpec:
    """A GRAMER cell on ``experiment_config(**overrides)``.

    Only overrides that differ from :func:`experiment_config` enter the
    spec, so a default-valued sweep point is Table III's own cell.
    """
    defaults = asdict(experiment_config())
    config = {
        key: value
        for key, value in asdict(experiment_config(**overrides)).items()
        if defaults[key] != value
    }
    return cell_jobspec("gramer", app_name, graph_name, scale, config, params)


def onchip_entries(graph_name: str, scale: str, fraction: float) -> int:
    """On-chip entries for ``fraction`` of the graph's V + E words (≥ 64)."""
    graph = datasets.load(graph_name, scale)
    return max(64, int(fraction * (graph.num_vertices + len(graph.neighbors))))


def run_jobs(
    specs: Iterable[JobSpec], executor: Executor | None = None
) -> dict[JobSpec, JobResult]:
    """Run each distinct spec once through ``executor`` (default: inline).

    Returns spec -> its result, in first-submission order; a failed cell
    raises ``RuntimeError``.
    """
    executor = executor if executor is not None else Executor()
    distinct = list(dict.fromkeys(specs))
    results = dict(zip(distinct, executor.run(distinct)))
    for result in results.values():
        if not result.ok:
            raise RuntimeError(
                f"cell {result.spec.label()} failed: {result.error}"
            )
    return results


def run_cells(
    specs: Mapping[Any, JobSpec], executor: Executor | None = None
) -> dict[Any, dict]:
    """:func:`run_jobs` over ``specs``' values; key -> the cell's detail."""
    results = run_jobs(specs.values(), executor)
    return {key: results[spec].detail for key, spec in specs.items()}


def sweep(
    scale: str,
    app_name: str,
    graphs: Sequence[str],
    field: str,
    values: Sequence[Any],
    executor: Executor | None = None,
    memory_fraction: float | None = None,
) -> dict[str, dict[Any, dict]]:
    """Per graph, per value of config ``field``: the GRAMER cell's detail.

    With ``memory_fraction``, each graph's on-chip memory holds that share
    of its data (:func:`onchip_entries`).  Runs through :func:`run_cells`.
    """
    specs = {}
    for graph in graphs:
        sized = {}
        if memory_fraction is not None:
            sized["onchip_entries"] = onchip_entries(graph, scale, memory_fraction)
        for value in values:
            specs[graph, value] = gramer_spec(
                app_name, graph, scale, **sized, **{field: value}
            )
    cells = run_cells(specs, executor)
    return {g: {value: cells[g, value] for value in values} for g in graphs}


def normalized_rows(
    cells: Mapping[str, Mapping[Any, dict]], reference: Any, key: str
) -> list[dict]:
    """One row per graph of a :func:`sweep`: its ``cycles`` per point and,
    under ``key``, each point's speedup over the ``reference`` point."""
    rows = []
    for graph, by_point in cells.items():
        cycles = {point: detail["cycles"] for point, detail in by_point.items()}
        ratios = {point: cycles[reference] / c for point, c in cycles.items()}
        rows.append({"graph": graph, "cycles": cycles, key: ratios})
    return rows


def format_seconds(seconds: float | None) -> str:
    """Table III style cell: seconds with sensible precision, or N/A."""
    if seconds is None:
        return "N/A"
    if seconds == 0:
        return "0"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1:
        return f"{seconds * 1e3:.2f}ms"
    if seconds < 60:
        return f"{seconds:.2f}s"
    # Full-scale baseline cells exceed a minute (e.g. LiveJournal ~433 s);
    # render them Table III style as whole minutes + seconds.
    minutes, rest = divmod(seconds, 60.0)
    return f"{int(minutes)}m {rest:.0f}s"


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Plain aligned text table."""
    cells = [[str(h) for h in headers]] + [
        [str(c) for c in row] for row in rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def save_results(payload: dict, path: str | Path) -> None:
    """Serialise an experiment's structured results to JSON."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            json_safe_keys(payload), handle, indent=2, sort_keys=True, default=str
        )
