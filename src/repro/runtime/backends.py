"""Execution backends: one ``Backend.run(JobSpec) -> JobResult`` interface.

Each of the repository's four execution vehicles — exact software mining
(:func:`repro.mining.engine.run_dfs`), the GRAMER cycle simulator, and the
Fractal/RStream baseline models — is wrapped as a backend and registered by
name, so every consumer (the experiment harness, ``run_all``, the CLI's
``sweep``) resolves work through one registry instead of constructing
simulators and models inline.

The cell semantics (fixed overheads, energy accounting, scaled CPU
configurations) moved here verbatim from ``experiments.harness`` — results
are bit-identical to the pre-runtime serial path; the harness now re-exports
these helpers and builds :class:`~repro.runtime.spec.JobSpec`\\ s.

Graphs are addressed through the content-addressed
:class:`~repro.graph.store.GraphStore`: :func:`resolve_graph` opens
memory-mapped artifacts (registry proxies via the dataset registry,
edge-list files via :meth:`GraphStore.import_edge_list`), so sweep
workers attach to already-materialized artifacts through the page cache,
and ON1 rank permutations are content-addressed by the same digest
(:func:`cached_vertex_rank`) — computed once ever per graph, never
re-hashed per job.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

import numpy as np

from repro.accel.config import GramerConfig
from repro.accel.energy import EnergyParams, cpu_energy, gramer_energy
from repro.accel.sim import SimResult, make_simulator
from repro.baselines.cpu import CPUConfig
from repro.baselines.fractal import BaselineResult, FractalModel
from repro.baselines.rstream import RStreamModel
from repro.graph.csr import CSRGraph
from repro.graph.reorder import rank_permutation
from repro.graph.store import default_graph_store
from repro.locality.occurrence import occurrence_numbers
from repro.mining.apps import make_app
from repro.mining.apps.base import Application
from repro.mining.engine import run_dfs

from .cache import default_cache
from .spec import JobResult, JobSpec

if TYPE_CHECKING:
    from repro.obs.access import AccessTrace
    from repro.obs.hooks import SimInstrument


__all__ = [
    "Backend",
    "SystemOverheads",
    "SCALE_OVERHEADS",
    "experiment_config",
    "build_app",
    "resolve_graph",
    "graph_digest_for",
    "cached_vertex_rank",
    "register_backend",
    "get_backend",
    "backend_names",
    "GramerBackend",
    "FractalBackend",
    "RStreamBackend",
    "SoftwareBackend",
]


@dataclass(frozen=True)
class SystemOverheads:
    """Fixed per-run costs, scaled with the proxy preset.

    The paper's Table III timing includes each system's fixed costs:
    GRAMER's "FPGA setup time and data transfer overheads between CPU and
    FPGA", Fractal's multi-thread task management (Spark setup excluded),
    and RStream's stream/table initialisation.  The absolute values below
    are scaled to the proxies so the *ratios* between fixed costs and
    mining work match the paper's regime (e.g. Citeseer: GRAMER 9.9 ms vs
    Fractal 150 ms vs RStream 11 ms — overhead-dominated on all three).
    """

    gramer_setup_s: float
    fractal_task_s: float
    rstream_startup_s: float
    pcie_bandwidth_bytes_per_s: float = 12e9  # PCIe gen3 x16 effective


SCALE_OVERHEADS: dict[str, SystemOverheads] = {
    "tiny": SystemOverheads(1.0e-4, 1.5e-3, 1.2e-4),
    "small": SystemOverheads(3.0e-4, 4.5e-3, 3.5e-4),
    "full": SystemOverheads(1.0e-3, 1.5e-2, 1.1e-3),
}


def experiment_config(**overrides: Any) -> GramerConfig:
    """The default accelerator configuration for all experiments."""
    from repro.experiments import datasets

    base: dict[str, Any] = dict(onchip_entries=datasets.EXPERIMENT_ONCHIP_ENTRIES)
    base.update(overrides)
    return GramerConfig(**base)


def build_app(app_name: str, graph_name: str, scale: str) -> Application:
    """Instantiate a Table III application variant for one dataset.

    Bare ``FSM`` runs at the dataset's calibrated support threshold;
    ``FSM-<t>`` runs at ``t``.
    """
    from repro.experiments import datasets

    if app_name.strip().upper() == "FSM":
        threshold = datasets.fsm_threshold(graph_name, scale)
        return make_app(f"FSM-{threshold}")
    return make_app(app_name)


def _make_app_for(spec: JobSpec) -> Application:
    if spec.dataset is not None:
        return build_app(spec.app, spec.dataset, spec.scale)
    # Edge-list jobs must spell out FSM thresholds ("FSM-100"); there is no
    # dataset registry entry to scale one from.
    return make_app(spec.app)


def resolve_graph(spec: JobSpec, needs_labels: bool) -> CSRGraph:
    """Open the spec's graph, memory-mapped from the graph store.

    Every route lands on a store artifact: an edge-list file is imported
    (parsed at most once per file content); a registry proxy goes through
    the store-materialized dataset registry.
    """
    store = default_graph_store()
    if spec.graph_path is not None:
        return store.open(store.import_edge_list(spec.graph_path))
    from repro.experiments import datasets

    if needs_labels:
        return datasets.load_labeled(spec.dataset, spec.scale)
    return datasets.load(spec.dataset, spec.scale)


def graph_digest_for(spec: JobSpec) -> str:
    """Materialize the spec's graph in the store; return its digest.

    Store-backed graphs carry their digest from the artifact header, so
    this never re-hashes arrays.
    """
    app = _make_app_for(spec)
    return resolve_graph(spec, app.needs_labels).content_digest()


def cached_vertex_rank(graph: CSRGraph) -> np.ndarray:
    """ON1 rank permutation, content-addressed by the graph digest.

    The digest is memoized on the graph (store-backed graphs read it from
    their artifact header), so a lookup never re-hashes the arrays.
    """
    key = {"graph": graph.content_digest(), "hops": 1}
    return default_cache().get_or_create(
        "on1_rank",
        key,
        lambda: rank_permutation(occurrence_numbers(graph, hops=1)),
    )


def _overheads(scale: str) -> SystemOverheads:
    try:
        return SCALE_OVERHEADS[scale]
    except KeyError:
        raise ValueError(
            f"unknown scale {scale!r}; choose from {sorted(SCALE_OVERHEADS)}"
        ) from None


@runtime_checkable
class Backend(Protocol):
    """One way of executing a mining job.

    ``instrument`` (simulator hooks) and ``access_trace`` (the
    memory-access channel) are observers: a backend that supports one
    feeds it, one that does not ignores it, and either way the returned
    ``JobResult`` is identical (bar wall time) to an unobserved run.
    """

    name: str
    #: The ``JobSpec.config`` and ``JobSpec.params`` keys ``run`` reads;
    #: ``make_jobspec`` rejects any other key, so a typo cannot run the
    #: default under its own key.
    config_keys: frozenset[str]
    param_keys: frozenset[str]

    def run(
        self,
        spec: JobSpec,
        *,
        instrument: "SimInstrument | None" = None,
        access_trace: "AccessTrace | None" = None,
    ) -> JobResult:  # pragma: no cover - protocol
        ...


class GramerBackend:
    """The GRAMER cycle-level simulator (`accel.sim`)."""

    name = "gramer"
    system = "GRAMER"
    config_keys = frozenset(f.name for f in fields(GramerConfig))
    param_keys = frozenset(
        ["use_on1_ranks"] + [f"energy_{f.name}" for f in fields(EnergyParams)]
    )

    def run(
        self,
        spec: JobSpec,
        *,
        instrument: "SimInstrument | None" = None,
        access_trace: "AccessTrace | None" = None,
    ) -> JobResult:
        """Simulate the cell; hooks and the access trace only observe."""
        params = spec.params_dict()
        app = _make_app_for(spec)
        graph = resolve_graph(spec, app.needs_labels)
        cfg = experiment_config(**spec.config_dict())
        energy_overrides = {
            key[len("energy_"):]: value
            for key, value in params.items()
            if key.startswith("energy_")
        }
        energy_params = EnergyParams(**energy_overrides) if energy_overrides else None
        overheads = _overheads(spec.scale)
        if params.get("use_on1_ranks", True):
            vertex_rank = cached_vertex_rank(graph)
        else:
            vertex_rank = None

        start = time.perf_counter()
        result: SimResult = make_simulator(
            graph,
            cfg,
            vertex_rank=vertex_rank,
            use_on1_ranks=params.get("use_on1_ranks", True),
            instrument=instrument,
            access_trace=access_trace,
        ).run(app)
        wall = time.perf_counter() - start
        energy = gramer_energy(result.stats, cfg, energy_params)
        # Table III's GRAMER time "includes the FPGA setup time and data
        # transfer overheads between CPU and FPGA" (§VI-B).
        graph_bytes = (graph.num_vertices + 1 + len(graph.neighbors)) * 8
        fixed = overheads.gramer_setup_s + (
            graph_bytes / overheads.pcie_bandwidth_bytes_per_s
        )
        # The FPGA burns its static power through the setup/transfer period
        # too, and the paper's energy comparison spans the same total runtime
        # its Table III reports — charge it on the same basis.
        static_w = (energy_params or EnergyParams()).static_w
        total_energy_j = energy.total_j + static_w * fixed
        return JobResult(
            spec=spec,
            system=self.system,
            ok=True,
            seconds=result.seconds + fixed,
            energy_j=total_energy_j,
            wall_seconds=wall,
            detail={
                "cycles": result.cycles,
                "execution_seconds": result.seconds,
                "fixed_overhead_seconds": fixed,
                "vertex_hit_ratio": result.stats.vertex_hit_ratio,
                "edge_hit_ratio": result.stats.edge_hit_ratio,
                "steals": result.stats.steals,
                "embeddings": result.mining.embeddings_by_size,
                "summary": result.mining.summary,
            },
        )


#: The config keys the CPU baselines read: :class:`CPUConfig`'s fields.
_CPU_CONFIG_KEYS = frozenset(f.name for f in fields(CPUConfig))


def _scaled_cpu_config(spec: JobSpec) -> CPUConfig:
    from repro.experiments import datasets

    base = datasets.scaled_cpu_config(spec.scale)
    overrides = spec.config_dict()
    return replace(base, **overrides) if overrides else base


def _baseline_result(
    spec: JobSpec,
    system: str,
    model: FractalModel | RStreamModel,
    access_trace: "AccessTrace | None",
) -> JobResult:
    app = _make_app_for(spec)
    graph = resolve_graph(spec, app.needs_labels)
    start = time.perf_counter()
    result: BaselineResult = model.run(graph, app, access_trace=access_trace)
    wall = time.perf_counter() - start
    seconds = result.seconds if result.available else None
    return JobResult(
        spec=spec,
        system=system,
        ok=True,
        seconds=seconds,
        energy_j=cpu_energy(seconds) if seconds is not None else None,
        wall_seconds=wall,
        detail={
            "failed": result.failed,
            "stalls": result.breakdown.stall_fractions(),
            "embeddings": result.mining.embeddings_by_size,
            "summary": result.mining.summary,
        },
    )


class FractalBackend:
    """The Fractal-model CPU DFS baseline."""

    name = "fractal"
    system = "Fractal"
    config_keys = _CPU_CONFIG_KEYS
    param_keys = frozenset(["task_overhead_s"])

    def _model(self, spec: JobSpec) -> FractalModel:
        params = spec.params_dict()
        return FractalModel(
            _scaled_cpu_config(spec),
            task_overhead_s=params.get(
                "task_overhead_s", _overheads(spec.scale).fractal_task_s
            ),
        )

    def run(
        self,
        spec: JobSpec,
        *,
        instrument: "SimInstrument | None" = None,
        access_trace: "AccessTrace | None" = None,
    ) -> JobResult:
        """Run the model; ``access_trace`` gets the post-L2 miss stream."""
        return _baseline_result(
            spec, self.system, self._model(spec), access_trace
        )


class RStreamBackend:
    """The RStream-model out-of-core BFS baseline."""

    name = "rstream"
    system = "RStream"
    config_keys = _CPU_CONFIG_KEYS
    param_keys = frozenset(["startup_overhead_s", "max_frontier"])

    def _model(self, spec: JobSpec) -> RStreamModel:
        params = spec.params_dict()
        return RStreamModel(
            _scaled_cpu_config(spec),
            startup_overhead_s=params.get(
                "startup_overhead_s", _overheads(spec.scale).rstream_startup_s
            ),
            max_frontier=int(params.get("max_frontier", 2_000_000)),
        )

    def run(
        self,
        spec: JobSpec,
        *,
        instrument: "SimInstrument | None" = None,
        access_trace: "AccessTrace | None" = None,
    ) -> JobResult:
        """Run the model; ``access_trace`` gets the miss and spill streams."""
        return _baseline_result(
            spec, self.system, self._model(spec), access_trace
        )


class SoftwareBackend:
    """Exact software mining (`mining.engine.run_dfs`), no timing model.

    ``seconds`` is ``None`` — the software path measures host wall time,
    which is inherently nondeterministic and therefore lives only in
    ``wall_seconds``; ``detail`` carries the exact counts.
    """

    name = "software"
    system = "Software"
    config_keys: frozenset[str] = frozenset()
    param_keys: frozenset[str] = frozenset()

    def run(
        self,
        spec: JobSpec,
        *,
        instrument: "SimInstrument | None" = None,
        access_trace: "AccessTrace | None" = None,
    ) -> JobResult:
        """Mine the cell; with no hooked path, both observers stay empty."""
        app = _make_app_for(spec)
        graph = resolve_graph(spec, app.needs_labels)
        start = time.perf_counter()
        run_dfs(graph, app)
        wall = time.perf_counter() - start
        mining = app.result()
        return JobResult(
            spec=spec,
            system=self.system,
            ok=True,
            seconds=None,
            energy_j=None,
            wall_seconds=wall,
            detail={
                "candidates_checked": app.candidates_checked,
                "embeddings": mining.embeddings_by_size,
                "patterns": mining.patterns_by_size,
                "summary": mining.summary,
            },
        )


_REGISTRY: dict[str, Backend] = {}


def register_backend(backend: Backend, override: bool = False) -> None:
    """Add a backend to the registry (``override`` to replace an entry)."""
    if not override and backend.name in _REGISTRY:
        raise ValueError(f"backend {backend.name!r} already registered")
    _REGISTRY[backend.name] = backend


def get_backend(name: str) -> Backend:
    """Resolve a backend by registry name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def backend_names() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


for _backend in (GramerBackend(), FractalBackend(), RStreamBackend(), SoftwareBackend()):
    register_backend(_backend)
