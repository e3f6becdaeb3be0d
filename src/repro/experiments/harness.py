"""Shared experiment harness.

Every ``figNN_*``/``tableN_*`` module produces plain-dict rows through the
helpers here: one function runs a (system, app, graph) cell, one formats
aligned text tables, one serialises results to JSON for EXPERIMENTS.md.

Since the runtime refactor, cells execute through the backend registry of
:mod:`repro.runtime`: each ``run_*_cell`` helper is a thin builder that
assembles a :class:`~repro.runtime.spec.JobSpec`, routes it through
:func:`~repro.runtime.executor.run_spec` (artifact cache included), and
converts the :class:`~repro.runtime.spec.JobResult` back into the legacy
:class:`CellResult` shape the figure/table modules consume.  The cell
semantics (fixed overheads, energy accounting) live in
:mod:`repro.runtime.backends` and are re-exported here unchanged.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from repro.obs.hooks import SimInstrument
    from repro.runtime.retry import RetryPolicy

from repro.accel.config import GramerConfig
from repro.accel.energy import EnergyParams
from repro.baselines.cpu import CPUConfig
from repro.runtime.backends import (  # noqa: F401  (re-exported legacy API)
    SCALE_OVERHEADS,
    SystemOverheads,
    build_app,
    experiment_config,
)
from repro.runtime.executor import run_spec
from repro.runtime.spec import JobResult, JobSpec, json_safe_keys, make_jobspec

from . import datasets

__all__ = [
    "CellResult",
    "experiment_config",
    "build_app",
    "cell_jobspec",
    "cell_from_result",
    "run_cell",
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


def run_cell(
    spec: JobSpec,
    use_cache: bool = True,
    instrument: "SimInstrument | None" = None,
    retry: "RetryPolicy | None" = None,
) -> CellResult:
    """Execute one cell spec through the backend registry.

    ``instrument`` attaches observability hooks (and bypasses the cache
    so the simulator actually runs); see :mod:`repro.obs`.  ``retry``
    overrides the runtime's default transient-failure policy
    (:data:`repro.runtime.retry.DEFAULT_RETRY`); see docs/resilience.md.
    """
    result = run_spec(
        spec, use_cache=use_cache, instrument=instrument, retry=retry
    )
    if not result.ok:
        raise RuntimeError(f"cell {spec.label()} failed: {result.error}")
    return cell_from_result(result)


def run_gramer_cell(
    app_name: str,
    graph_name: str,
    scale: str = "small",
    config: GramerConfig | None = None,
    energy_params: EnergyParams | None = None,
    engine: str | None = None,
) -> CellResult:
    """Simulate GRAMER for one Table III cell.

    ``engine`` selects the simulation engine (``"fast"``/``"reference"``/
    ``"turbo"``); ``None`` keeps it out of the job spec so cache keys stay
    stable and the backend applies its default.  Fast and reference are
    byte-identical, so choosing between them never affects the cell's
    numbers; turbo keeps mining counts exact but its timing/energy fields
    are only tolerance-banded (tests/differential/tolerance.py) and the
    cell gets a distinct cache key.
    """
    params = {
        f"energy_{k}": v
        for k, v in _config_overrides(energy_params, EnergyParams()).items()
    }
    # energy_params with all-default fields must still reach the backend.
    if energy_params is not None and not params:
        params = {"energy_static_w": EnergyParams().static_w}
    if engine is not None:
        params["engine"] = engine
    spec = cell_jobspec(
        "gramer",
        app_name,
        graph_name,
        scale,
        config=_config_overrides(config, experiment_config()),
        params=params,
    )
    return run_cell(spec)


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
