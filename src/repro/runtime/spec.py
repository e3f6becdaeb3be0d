"""Job specifications and results — the runtime's unit of work.

A :class:`JobSpec` is a frozen, hashable, picklable description of one
execution cell: which backend runs which application on which graph with
which configuration overrides.  A :class:`JobResult` is the complete
outcome — modeled seconds/energy, detail stats, mining summary, host wall
time, and cache/provenance metadata.

Both types are deliberately declarative: a spec carries no object
references (no graphs, no simulators), only names and scalars, so it can
cross process boundaries unchanged and serve directly as a content-address
for the artifact cache.  Determinism contract: two runs of the same spec —
in any process, at any worker count — produce results with identical
:meth:`JobResult.fingerprint`; only host wall time and cache provenance may
differ.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Mapping

__all__ = ["JobSpec", "JobResult", "json_safe_keys", "make_jobspec"]

# Also exactly the dict-key types ``json.dumps`` accepts.
_SCALAR_TYPES = (bool, int, float, str, type(None))


def json_safe_keys(obj: Any) -> Any:
    """``obj`` with every dict key ``json.dumps`` rejects turned into ``str``.

    Recurses through dicts, lists and tuples only; keys JSON accepts and
    every other value stay as they are, so an object that serialized
    before serializes to the same bytes.  (The software backend keys its
    pattern counts by :class:`~repro.mining.patterns.PatternCode`.)
    """
    if isinstance(obj, dict):
        return {
            (key if isinstance(key, _SCALAR_TYPES) else str(key)): json_safe_keys(
                value
            )
            for key, value in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        return [json_safe_keys(item) for item in obj]
    return obj


def _freeze_overrides(
    overrides: Mapping[str, Any] | None, label: str
) -> tuple[tuple[str, Any], ...]:
    if not overrides:
        return ()
    frozen: list[tuple[str, Any]] = []
    for key in sorted(overrides):
        value = overrides[key]
        if hasattr(value, "item") and callable(value.item):
            value = value.item()  # numpy scalar
        if not isinstance(value, _SCALAR_TYPES):
            raise TypeError(
                f"{label}[{key!r}] must be a scalar "
                f"(got {type(value).__name__}); specs stay declarative"
            )
        frozen.append((str(key), value))
    return tuple(frozen)


@dataclass(frozen=True)
class JobSpec:
    """One execution cell: (backend, app, graph, config overrides, seed).

    ``dataset``/``scale`` select a registered proxy graph;
    ``graph_path`` points at an edge-list file instead (mutually
    exclusive).  ``config`` holds backend-config overrides
    (:class:`~repro.accel.config.GramerConfig` fields for the simulator,
    :class:`~repro.baselines.cpu.CPUConfig` fields for the CPU models) and
    ``params`` holds backend-specific knobs beyond the config dataclass
    (energy parameters, RStream's frontier cap, ...), both as sorted
    ``(name, scalar)`` tuples so the spec stays hashable and
    content-addressable.
    """

    backend: str
    app: str
    dataset: str | None = None
    scale: str = "small"
    graph_path: str | None = None
    config: tuple[tuple[str, Any], ...] = ()
    params: tuple[tuple[str, Any], ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if (self.dataset is None) == (self.graph_path is None):
            raise ValueError(
                "JobSpec needs exactly one of dataset= or graph_path="
            )

    @property
    def graph_name(self) -> str:
        """Display name of the input graph."""
        return self.dataset if self.dataset is not None else str(self.graph_path)

    def config_dict(self) -> dict[str, Any]:
        return dict(self.config)

    def params_dict(self) -> dict[str, Any]:
        return dict(self.params)

    def cache_key(self) -> dict[str, Any]:
        """The content-address of this spec (all result-determining fields)."""
        return {"spec": asdict(self)}

    def label(self) -> str:
        """Short human label for progress lines."""
        return f"{self.backend}:{self.app}@{self.graph_name}/{self.scale}"


def make_jobspec(
    backend: str,
    app: str,
    dataset: str | None = None,
    scale: str = "small",
    graph_path: str | None = None,
    config: Mapping[str, Any] | None = None,
    params: Mapping[str, Any] | None = None,
    seed: int = 0,
) -> JobSpec:
    """Build a :class:`JobSpec`, normalizing override mappings.

    Raises ``ValueError`` for a ``config`` or ``params`` key the backend
    does not read (its ``config_keys`` or ``param_keys``).
    """
    frozen_config = _freeze_overrides(config, "config")
    frozen_params = _freeze_overrides(params, "params")
    if frozen_config or frozen_params:
        from .backends import get_backend  # backends imports this module

        reader = get_backend(backend)
        for frozen, known, label in (
            (frozen_config, reader.config_keys, "config keys"),
            (frozen_params, reader.param_keys, "params"),
        ):
            unknown = [key for key, _ in frozen if key not in known]
            if unknown:
                raise ValueError(
                    f"backend {backend!r} reads no {label} {unknown}; "
                    f"its {label} are {sorted(known)}"
                )
    return JobSpec(
        backend=backend,
        app=app,
        dataset=dataset,
        scale=scale,
        graph_path=graph_path,
        config=frozen_config,
        params=frozen_params,
        seed=seed,
    )


@dataclass(frozen=True)
class JobResult:
    """Outcome of one :class:`JobSpec`.

    ``ok=False`` marks a job that raised (or timed out); ``error`` then
    carries ``"ExceptionType: message"``.  A model-level N/A (e.g. RStream
    out of disk) is still ``ok=True`` with ``seconds=None`` — the job ran
    and produced the paper's N/A cell.  ``detail`` is the backend's
    per-cell payload (cycles, hit ratios, mining counts, ...) that the
    experiment modules read.

    ``retries`` counts the *failed attempts that preceded this outcome*
    (0 = first try) across both in-process retries and executor-level
    resubmissions after a worker death or timeout; like ``wall_seconds``
    it is host provenance, excluded from :meth:`fingerprint`.
    """

    spec: JobSpec
    system: str
    ok: bool
    seconds: float | None
    energy_j: float | None
    detail: dict[str, Any] = field(default_factory=dict)
    wall_seconds: float = 0.0
    error: str | None = None
    cached: bool = False
    cache_key: str = ""
    retries: int = 0

    def fingerprint(self) -> str:
        """Canonical JSON of every deterministic field.

        Excludes host wall time, cache provenance, and retry counts
        (``wall_seconds``, ``cached``, ``retries``) — the fields allowed
        to differ between a fresh run, a cached replay, a fault-recovered
        run, and different ``--jobs`` fan-outs.
        """
        payload: dict[str, Any] = {
            "spec": asdict(self.spec),
            "system": self.system,
            "ok": self.ok,
            "seconds": self.seconds,
            "energy_j": self.energy_j,
            "detail": self.detail,
            "error": self.error,
        }
        return json.dumps(
            json_safe_keys(payload),
            sort_keys=True,
            separators=(",", ":"),
            default=str,
        )

    def as_cached(self) -> "JobResult":
        """Copy marked as served from the artifact cache."""
        return replace(self, cached=True)


def failed_result(
    spec: JobSpec,
    error: BaseException | str,
    wall_seconds: float = 0.0,
    retries: int = 0,
) -> JobResult:
    """A failure cell: the job died but the sweep carries on."""
    if isinstance(error, BaseException):
        message = f"{type(error).__name__}: {error}"
        kind = type(error).__name__
    else:
        message = str(error)
        kind = message.split(":", 1)[0]
    return JobResult(
        spec=spec,
        system=spec.backend,
        ok=False,
        seconds=None,
        energy_j=None,
        detail={"error_type": kind},
        wall_seconds=wall_seconds,
        error=message,
        retries=retries,
    )


__all__.append("failed_result")
