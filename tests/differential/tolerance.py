"""Statistical-tolerance contract between the turbo and exact engines.

The reference here is the exact engine (``engine="reference"``), which
promises byte-identity to the per-event oracle and is checked with ``==``
(see ``test_engine_equivalence.py``).  The turbo engine deliberately gives that
up: its timing model is decoupled from the functional mining pass, so
timing-facing ``SimStats`` fields land *near* the reference, not on it.
"Near" must not mean "whatever the implementation happens to produce" —
this module pins it down as a declarative :class:`ToleranceSpec`:

* an **exact set**: mining counts, mining results and exception types
  must match the reference byte-for-byte on every input, and
* **per-field bands**: each timing/energy field carries a relative +
  absolute tolerance (``|turbo - ref| <= rel * |ref| + abs``) calibrated
  against a 160-sample sweep of the hypothesis config space and the
  Table III tiny grid, with ~1.3-1.5x safety margin on the observed
  worst case.

Two specs are published:

* :data:`TINY_GRID_SPEC` — the Table III tiny grid under the default
  ``GramerConfig``.  This is the configuration the paper's results use,
  and the bands are tight (cycles within 20%, waits within 35%).
* :data:`CORPUS_SPEC` — the adversarial hypothesis space (1-PU configs,
  16-entry caches, single DRAM channels...).  Tiny workloads amplify
  schedule divergence, so the bands are wider; the exact set is
  identical.

Comparisons never use ad-hoc ``==`` on timing fields — that is exactly
the mistake the GRM702 check (``repro.analysis.rules.timing_tolerance``)
exists to catch.  Use :func:`assert_within_tolerance` (or
:func:`compare`) instead; failures report the first out-of-band field
with the reference value, the turbo value, and the violated band.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.accel.config import GramerConfig
from repro.accel.energy import gramer_energy
from repro.accel.sim import make_simulator
from repro.accel.stats import SimStats
from repro.mining import make_app

__all__ = [
    "Band",
    "Divergence",
    "ToleranceSpec",
    "EXACT_FIELDS",
    "TINY_GRID_SPEC",
    "CORPUS_SPEC",
    "snapshot_run",
    "compare",
    "assert_within_tolerance",
]


# SimStats fields whose values are schedule-invariant: the turbo engine
# must reproduce them exactly, on every input, or it is mining a
# different answer.  (Mining results and exception types are handled
# structurally by ``compare`` and are always exact.)
EXACT_FIELDS = frozenset(
    {"candidates_checked", "embeddings_accepted", "roots_dispatched"}
)


@dataclass(frozen=True)
class Band:
    """One field's tolerance: pass iff ``|got - ref| <= rel*|ref| + abs``.

    The additive form keeps small reference values honest: a pure
    relative band would reject noise-level deviations on near-zero
    counters, and a pure absolute band would let large cells drift.
    """

    rel: float = 0.0
    abs: float = 0.0

    def allows(self, ref: float, got: float) -> bool:
        return abs(got - ref) <= self.rel * abs(ref) + self.abs

    def describe(self) -> str:
        return f"rel={self.rel:g} abs={self.abs:g}"


@dataclass(frozen=True)
class Divergence:
    """One field outside its declared tolerance."""

    field: str
    ref: object
    got: object
    band: Band | None  # None for exact/structural divergences
    kind: str  # "exact" | "band" | "error" | "structure"

    def __str__(self) -> str:
        if self.band is None:
            return (
                f"{self.kind} divergence on {self.field!r}: "
                f"reference={self.ref!r} turbo={self.got!r}"
            )
        return (
            f"{self.field!r} out of tolerance ({self.band.describe()}): "
            f"reference={self.ref!r} turbo={self.got!r} "
            f"|diff|={abs(float(self.got) - float(self.ref)):g} > "
            f"allowed={self.band.rel * abs(float(self.ref)) + self.band.abs:g}"
        )


@dataclass(frozen=True)
class ToleranceSpec:
    """Declarative contract for one engine-vs-reference comparison."""

    name: str
    bands: Mapping[str, Band]
    #: Derived metrics (computed from the stats dict, not stored in it).
    derived: Mapping[str, Band] = field(default_factory=dict)
    #: List-valued fields compared element by element under one band.
    elementwise: Mapping[str, Band] = field(default_factory=dict)
    exact: frozenset = EXACT_FIELDS

    def band_for(self, name: str) -> Band | None:
        return self.bands.get(name) or self.derived.get(name)


def _derived_metrics(stats_dict: Mapping[str, Any]) -> dict[str, float]:
    """Ratios and energy derived from a SimStats dict.

    Reconstructs a ``SimStats`` so the derivations are the library's own
    (hit-ratio properties, ``gramer_energy``), not a reimplementation.
    """
    stats = SimStats(**stats_dict)  # type: ignore[arg-type]
    energy = gramer_energy(stats, GramerConfig())
    return {
        "vertex_hit_ratio": stats.vertex_hit_ratio,
        "edge_hit_ratio": stats.edge_hit_ratio,
        "load_imbalance": stats.load_imbalance,
        "energy_total_j": energy.total_j,
    }


def snapshot_run(graph, config, app_name, engine, vertex_rank=None):
    """Run one engine to a comparable snapshot.

    Returns ``{"stats": ..., "embeddings": ..., "patterns": ...,
    "candidates": ...}`` on success or ``{"error": <type name>}`` when
    the run raises — the exception type is part of the contract.
    """
    app = make_app(app_name)
    try:
        result = make_simulator(
            graph, config, engine=engine, vertex_rank=vertex_rank
        ).run(app)
    except Exception as error:  # noqa: BLE001 - the type IS the payload
        return {"error": type(error).__name__}
    return {
        "stats": result.stats.as_dict(),
        "embeddings": result.mining.embeddings_by_size,
        "patterns": result.mining.patterns_by_size,
        "candidates": app.candidates_checked,
    }


def compare(spec: ToleranceSpec, reference, turbo) -> list[Divergence]:
    """All divergences of ``turbo`` from ``reference`` under ``spec``.

    Exact/structural divergences sort first so the leading entry of a
    failure is always the most alarming one.
    """
    ref_err = "error" in reference
    got_err = "error" in turbo
    if ref_err or got_err:
        if reference.get("error") == turbo.get("error"):
            return []
        return [
            Divergence(
                "exception",
                reference.get("error"),
                turbo.get("error"),
                None,
                "error",
            )
        ]

    exact_div: list[Divergence] = []
    band_div: list[Divergence] = []
    for name in ("embeddings", "patterns", "candidates"):
        if reference[name] != turbo[name]:
            exact_div.append(
                Divergence(
                    name, reference[name], turbo[name], None, "structure"
                )
            )
    ref_stats, got_stats = reference["stats"], turbo["stats"]
    for name in sorted(spec.exact):
        if ref_stats[name] != got_stats[name]:
            exact_div.append(
                Divergence(
                    name, ref_stats[name], got_stats[name], None, "exact"
                )
            )
    for name, band in spec.bands.items():
        if not band.allows(ref_stats[name], got_stats[name]):
            band_div.append(
                Divergence(name, ref_stats[name], got_stats[name], band, "band")
            )
    for name, band in spec.elementwise.items():
        ref_list, got_list = ref_stats[name], got_stats[name]
        if len(ref_list) != len(got_list):
            exact_div.append(
                Divergence(name, ref_list, got_list, None, "structure")
            )
            continue
        for i, (rv, gv) in enumerate(zip(ref_list, got_list)):
            if not band.allows(rv, gv):
                band_div.append(
                    Divergence(f"{name}[{i}]", rv, gv, band, "band")
                )
    if spec.derived:
        ref_d = _derived_metrics(ref_stats)
        got_d = _derived_metrics(got_stats)
        for name, band in spec.derived.items():
            if not band.allows(ref_d[name], got_d[name]):
                band_div.append(
                    Divergence(name, ref_d[name], got_d[name], band, "band")
                )
    return exact_div + band_div


def assert_within_tolerance(
    spec: ToleranceSpec, reference, turbo, context: str = ""
) -> None:
    """Raise with the first out-of-band field (ref vs turbo vs band)."""
    divergences = compare(spec, reference, turbo)
    if not divergences:
        return
    first = divergences[0]
    rest = (
        f" (+{len(divergences) - 1} more: "
        f"{', '.join(d.field for d in divergences[1:])})"
        if len(divergences) > 1
        else ""
    )
    where = f" [{context}]" if context else ""
    raise AssertionError(f"[{spec.name}]{where} {first}{rest}")


def _spec(name: str, scale: float, **overrides: Band) -> ToleranceSpec:
    """Build a spec from the tight (tiny-grid) bands scaled by ``scale``."""
    base = {
        "cycles": Band(rel=0.20, abs=16),
        "compute_cycles": Band(rel=0.02, abs=8),
        "vertex_high_hits": Band(rel=0.05, abs=4),
        "edge_high_hits": Band(rel=0.01, abs=2),
        "vertex_low_hits": Band(rel=0.15, abs=16),
        "edge_low_hits": Band(rel=0.15, abs=16),
        "vertex_misses": Band(rel=0.45, abs=16),
        "edge_misses": Band(rel=0.40, abs=16),
        "vertex_wait_cycles": Band(rel=0.35, abs=32),
        "edge_wait_cycles": Band(rel=0.35, abs=32),
        "steals": Band(rel=0.45, abs=16),
        "steal_attempts": Band(rel=1.30, abs=48),
    }
    derived = {
        "vertex_hit_ratio": Band(abs=0.06),
        "edge_hit_ratio": Band(abs=0.04),
        "load_imbalance": Band(rel=0.40, abs=0.3),
        "energy_total_j": Band(rel=0.25, abs=1e-6),
    }
    elementwise = {
        "pu_finish_cycles": Band(rel=0.55, abs=32),
        "pu_busy_cycles": Band(rel=0.50, abs=32),
    }
    for table in (base, derived, elementwise):
        for key, band in table.items():
            if key in overrides:
                table[key] = overrides[key]
            elif scale != 1.0:
                table[key] = Band(
                    rel=round(band.rel * scale, 4), abs=band.abs * scale
                )
    return ToleranceSpec(
        name=name, bands=base, derived=derived, elementwise=elementwise
    )


#: Table III tiny grid under the default GramerConfig — the paper-facing
#: configuration.  Observed worst cases across the full 6x7 grid:
#: cycles -0.11, waits -0.23, vertex_misses -0.33 (on counts of ~150),
#: vertex_high_hits -0.03, steals -0.34, steal_attempts +1.07.
TINY_GRID_SPEC = _spec("tiny-grid", scale=1.0)

#: Hypothesis corpus: tiny adversarial workloads (down to 1 PU x 1 slot,
#: 16-entry caches, one DRAM channel) where a handful of schedule-
#: dependent cache misses moves every downstream field by a large
#: fraction.  Observed worst cases across the 160-sample calibration
#: sweep: cycles 0.86, waits 0.65, pu_finish 1.15, steal_attempts 0.90.
CORPUS_SPEC = _spec(
    "hypothesis-corpus",
    scale=1.0,
    cycles=Band(rel=1.2, abs=64),
    compute_cycles=Band(rel=0.08, abs=16),
    vertex_high_hits=Band(rel=0.12, abs=8),
    edge_high_hits=Band(rel=0.02, abs=4),
    vertex_low_hits=Band(rel=0.35, abs=32),
    edge_low_hits=Band(rel=0.60, abs=24),
    vertex_misses=Band(rel=0.65, abs=24),
    edge_misses=Band(rel=0.50, abs=20),
    # A miss-count deviation inside its own band (abs ~20) shows up in
    # the wait fields multiplied by dram_latency (up to 100 cycles), so
    # the additive term here must absorb ~20 x 100 on tiny workloads.
    vertex_wait_cycles=Band(rel=0.90, abs=2400),
    edge_wait_cycles=Band(rel=0.90, abs=2400),
    steals=Band(rel=0.65, abs=24),
    steal_attempts=Band(rel=1.50, abs=96),
    pu_finish_cycles=Band(rel=2.0, abs=2400),
    pu_busy_cycles=Band(rel=1.20, abs=2400),
    # Ratios over tiny denominators (corpus graphs reach ~50 accesses)
    # swing hard on a handful of schedule-dependent misses.
    vertex_hit_ratio=Band(abs=0.25),
    edge_hit_ratio=Band(abs=0.25),
    load_imbalance=Band(rel=0.8, abs=0.6),
    energy_total_j=Band(rel=1.2, abs=1e-6),
)
