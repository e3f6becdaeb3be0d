"""Simulation statistics.

Everything the evaluation section reads comes out of :class:`SimStats`:
cycle counts (Table III / Figs. 13-14), per-level memory hit ratios
(Fig. 12), access/energy counts (Fig. 11), stall attribution (the GRAMER
side of Fig. 3's methodology), and load-balance/steal counters (Fig. 13b).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry

__all__ = ["SimStats"]


@dataclass
class SimStats:
    """Mutable counters accumulated by one simulation run."""

    cycles: int = 0
    candidates_checked: int = 0
    embeddings_accepted: int = 0
    roots_dispatched: int = 0
    steals: int = 0
    steal_attempts: int = 0

    # Memory access counts by (side, level).
    vertex_high_hits: int = 0
    vertex_low_hits: int = 0
    vertex_misses: int = 0
    edge_high_hits: int = 0
    edge_low_hits: int = 0
    edge_misses: int = 0

    # Cycle attribution (summed over slots; overlaps across slots allowed).
    compute_cycles: int = 0
    vertex_wait_cycles: int = 0
    edge_wait_cycles: int = 0

    # Per-PU busy time for load-balance analysis.
    pu_finish_cycles: list[int] = field(default_factory=list)
    pu_busy_cycles: list[int] = field(default_factory=list)

    @property
    def vertex_accesses(self) -> int:
        """Total vertex-memory requests."""
        return self.vertex_high_hits + self.vertex_low_hits + self.vertex_misses

    @property
    def edge_accesses(self) -> int:
        """Total edge-memory requests."""
        return self.edge_high_hits + self.edge_low_hits + self.edge_misses

    @property
    def vertex_hit_ratio(self) -> float:
        """On-chip hit ratio of the vertex memory (Fig. 12a metric)."""
        total = self.vertex_accesses
        return (
            (self.vertex_high_hits + self.vertex_low_hits) / total
            if total
            else 0.0
        )

    @property
    def edge_hit_ratio(self) -> float:
        """On-chip hit ratio of the edge memory (Fig. 12a metric)."""
        total = self.edge_accesses
        return (
            (self.edge_high_hits + self.edge_low_hits) / total if total else 0.0
        )

    @property
    def dram_accesses(self) -> int:
        """Requests that went off-chip."""
        return self.vertex_misses + self.edge_misses

    @property
    def load_imbalance(self) -> float:
        """Max-over-mean PU busy time (1.0 = perfectly balanced)."""
        if not self.pu_busy_cycles or sum(self.pu_busy_cycles) == 0:
            return 1.0
        mean = sum(self.pu_busy_cycles) / len(self.pu_busy_cycles)
        return max(self.pu_busy_cycles) / mean

    def seconds(self, clock_mhz: float) -> float:
        """Wall-clock time at the given clock."""
        return self.cycles / (clock_mhz * 1e6)

    def as_dict(self) -> dict[str, object]:
        """All counters as a plain dict (lists copied, JSON-friendly).

        The windowed timeline sampler differences consecutive ``as_dict``
        snapshots; the scalar fields are exactly the counters a window can
        attribute, so new fields become windowable automatically.
        """
        out: dict[str, object] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            out[spec.name] = list(value) if isinstance(value, list) else value
        return out

    def publish(self, registry: "MetricsRegistry") -> None:
        """Publish counters into a metrics registry (labels, not suffixes)."""
        accesses = registry.counter(
            "sim_accesses_total", "memory requests by side and service level"
        )
        accesses.inc(self.vertex_high_hits, side="vertex", level="high")
        accesses.inc(self.vertex_low_hits, side="vertex", level="low")
        accesses.inc(self.vertex_misses, side="vertex", level="miss")
        accesses.inc(self.edge_high_hits, side="edge", level="high")
        accesses.inc(self.edge_low_hits, side="edge", level="low")
        accesses.inc(self.edge_misses, side="edge", level="miss")
        waits = registry.counter(
            "sim_wait_cycles_total", "slot-cycles stalled on memory by side"
        )
        waits.inc(self.vertex_wait_cycles, side="vertex")
        waits.inc(self.edge_wait_cycles, side="edge")
        registry.counter(
            "sim_compute_cycles_total", "slot-cycles of pipeline compute"
        ).inc(self.compute_cycles)
        registry.counter(
            "sim_cycles_total", "end-to-end simulated cycles"
        ).inc(self.cycles)
        steals = registry.counter(
            "sim_steal_events_total", "steal probes by outcome"
        )
        steals.inc(self.steals, outcome="hit")
        steals.inc(
            max(0, self.steal_attempts - self.steals), outcome="miss"
        )
        hit_ratio = registry.gauge(
            "sim_hit_ratio", "on-chip hit ratio by side (Fig. 12a metric)"
        )
        hit_ratio.set(self.vertex_hit_ratio, side="vertex")
        hit_ratio.set(self.edge_hit_ratio, side="edge")
        registry.gauge(
            "sim_load_imbalance", "max-over-mean PU busy cycles"
        ).set(self.load_imbalance)
