"""Shared experiment harness.

Every ``figNN_*``/``tableN_*`` module produces plain-dict rows through the
helpers here.  A cell is a :class:`~repro.runtime.spec.JobSpec` run by a
:mod:`repro.runtime` backend (cell semantics such as fixed overheads and
energy live in :mod:`repro.runtime.backends`): :func:`run_cells` and
:func:`sweep` submit a figure's cells through one
:class:`~repro.runtime.executor.Executor` (artifact cache included), and
the ``run_*_cell`` helpers run one cell inline as a :class:`CellResult`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.accel.config import GramerConfig
from repro.accel.energy import EnergyParams
from repro.baselines.cpu import CPUConfig
from repro.runtime.backends import build_app, experiment_config
from repro.runtime.executor import Executor, run_spec
from repro.runtime.spec import JobResult, JobSpec, json_safe_keys, make_jobspec

from . import datasets

__all__ = [
    "CellResult",
    "experiment_config",
    "build_app",
    "cell_jobspec",
    "gramer_spec",
    "onchip_entries",
    "cell_from_result",
    "run_cell",
    "run_cells",
    "sweep",
    "normalized_rows",
    "run_gramer_cell",
    "run_fractal_cell",
    "run_rstream_cell",
    "format_table",
    "format_seconds",
    "save_results",
]


@dataclass(frozen=True)
class CellResult:
    """One (system, app, graph) measurement."""

    system: str
    app: str
    graph: str
    seconds: float | None  # modeled runtime; None = failed (N/A)
    energy_j: float | None
    wall_seconds: float  # host time spent producing the cell
    detail: dict


def _config_overrides(config, defaults) -> dict:
    """Reduce a config dataclass to the fields that differ from defaults."""
    if config is None:
        return {}
    base = asdict(defaults)
    return {k: v for k, v in asdict(config).items() if base[k] != v}


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
    defaults = experiment_config()
    config = _config_overrides(experiment_config(**overrides), defaults)
    return cell_jobspec("gramer", app_name, graph_name, scale, config, params)


def onchip_entries(graph_name: str, scale: str, fraction: float) -> int:
    """On-chip entries for ``fraction`` of the graph's V + E words (≥ 64)."""
    graph = datasets.load(graph_name, scale)
    return max(64, int(fraction * (graph.num_vertices + len(graph.neighbors))))


def cell_from_result(result: JobResult) -> CellResult:
    """Convert a runtime JobResult into the legacy CellResult shape."""
    return CellResult(
        system=result.system,
        app=result.spec.app,
        graph=result.spec.graph_name,
        seconds=result.seconds,
        energy_j=result.energy_j,
        wall_seconds=result.wall_seconds,
        detail=result.detail,
    )


def run_cell(spec: JobSpec) -> CellResult:
    """Execute one cell spec through the backend registry and its cache."""
    result = run_spec(spec)
    if not result.ok:
        raise RuntimeError(f"cell {spec.label()} failed: {result.error}")
    return cell_from_result(result)


def run_cells(
    specs: Mapping[Any, JobSpec], executor: Executor | None = None
) -> dict[Any, dict]:
    """Run each distinct spec once through ``executor`` (default: inline).

    Returns key -> the cell's detail; a failed cell raises, as
    :func:`run_cell` does.
    """
    executor = executor if executor is not None else Executor()
    distinct = list(dict.fromkeys(specs.values()))
    results = dict(zip(distinct, executor.run(distinct)))
    for result in results.values():
        if not result.ok:
            raise RuntimeError(
                f"cell {result.spec.label()} failed: {result.error}"
            )
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


def run_gramer_cell(
    app_name: str,
    graph_name: str,
    scale: str = "small",
    config: GramerConfig | None = None,
    energy_params: EnergyParams | None = None,
) -> CellResult:
    """Simulate GRAMER for one Table III cell."""
    params = {
        f"energy_{k}": v
        for k, v in _config_overrides(energy_params, EnergyParams()).items()
    }
    # energy_params with all-default fields must still reach the backend.
    if energy_params is not None and not params:
        params = {"energy_static_w": EnergyParams().static_w}
    fields = asdict(config) if config is not None else {}
    return run_cell(
        gramer_spec(app_name, graph_name, scale, params=params, **fields)
    )


def run_fractal_cell(
    app_name: str,
    graph_name: str,
    scale: str = "small",
    cpu_config: CPUConfig | None = None,
) -> CellResult:
    """Run the Fractal-model baseline for one cell."""
    spec = cell_jobspec(
        "fractal",
        app_name,
        graph_name,
        scale,
        config=_config_overrides(cpu_config, datasets.scaled_cpu_config(scale)),
    )
    return run_cell(spec)


def run_rstream_cell(
    app_name: str,
    graph_name: str,
    scale: str = "small",
    cpu_config: CPUConfig | None = None,
    max_frontier: int = 2_000_000,
) -> CellResult:
    """Run the RStream-model baseline for one cell."""
    spec = cell_jobspec(
        "rstream",
        app_name,
        graph_name,
        scale,
        config=_config_overrides(cpu_config, datasets.scaled_cpu_config(scale)),
        params={"max_frontier": max_frontier} if max_frontier != 2_000_000 else None,
    )
    return run_cell(spec)


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
