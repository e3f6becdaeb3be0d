"""Windowed timeline sampler — trajectories instead of end-of-run totals.

The third pillar of the observability subsystem.  ``SimStats`` counters
only answer "what happened over the whole run"; the questions that
motivate this subsystem — *when* does the low-priority cache degrade,
*which phase* is load-imbalanced — need the same counters sliced into
fixed-width cycle windows.

:class:`TimelineSampler` snapshots a stats object every ``window_cycles``
simulated cycles and differences consecutive snapshots into
:class:`TimelineWindow` records: per-window accesses/hits per side, DRAM
traffic, stall attribution, steals, plus point-in-time slot occupancy.
The simulator drives it from its event loop: ``advance`` once the clock
reaches :attr:`TimelineSampler.next_boundary`, ``finish`` once at the end.
Between boundaries the simulator keeps its counters wherever it likes and
builds a stats object only when a window closes.

Stats objects are duck-typed through a small ``Protocol``; the sampler
imports nothing from ``repro.accel``, keeping ``obs`` a leaf package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Protocol

__all__ = ["TimelineSampler", "TimelineWindow"]


class _StatsLike(Protocol):
    """Anything exposing scalar counters via ``as_dict`` (SimStats does)."""

    def as_dict(self) -> Mapping[str, object]: ...


@dataclass(frozen=True)
class TimelineWindow:
    """Counter deltas over one ``[start, end)`` cycle window."""

    index: int
    start_cycle: int
    end_cycle: int
    vertex_accesses: int
    vertex_hits: int
    edge_accesses: int
    edge_hits: int
    dram_accesses: int
    compute_cycles: int
    vertex_wait_cycles: int
    edge_wait_cycles: int
    steals: int
    steal_attempts: int
    roots_dispatched: int
    active_slots: int

    @property
    def vertex_hit_ratio(self) -> float:
        """On-chip vertex hit ratio within this window alone."""
        return (
            self.vertex_hits / self.vertex_accesses
            if self.vertex_accesses
            else 0.0
        )

    @property
    def edge_hit_ratio(self) -> float:
        """On-chip edge hit ratio within this window alone."""
        return (
            self.edge_hits / self.edge_accesses if self.edge_accesses else 0.0
        )

    def as_dict(self) -> dict[str, float]:
        """Flat JSON-friendly dump including the derived ratios."""
        return {
            "index": float(self.index),
            "start_cycle": float(self.start_cycle),
            "end_cycle": float(self.end_cycle),
            "vertex_accesses": float(self.vertex_accesses),
            "vertex_hits": float(self.vertex_hits),
            "vertex_hit_ratio": self.vertex_hit_ratio,
            "edge_accesses": float(self.edge_accesses),
            "edge_hits": float(self.edge_hits),
            "edge_hit_ratio": self.edge_hit_ratio,
            "dram_accesses": float(self.dram_accesses),
            "compute_cycles": float(self.compute_cycles),
            "vertex_wait_cycles": float(self.vertex_wait_cycles),
            "edge_wait_cycles": float(self.edge_wait_cycles),
            "steals": float(self.steals),
            "steal_attempts": float(self.steal_attempts),
            "roots_dispatched": float(self.roots_dispatched),
            "active_slots": float(self.active_slots),
        }


def _scalar_snapshot(stats: _StatsLike) -> dict[str, int]:
    """Integer counters of a stats dump (per-PU lists excluded)."""
    return {
        key: value
        for key, value in stats.as_dict().items()
        if isinstance(value, int) and not isinstance(value, bool)
    }


class TimelineSampler:
    """Fixed-width cycle-window differencing of a live stats object."""

    def __init__(self, window_cycles: int) -> None:
        if window_cycles < 1:
            raise ValueError(f"window_cycles must be >= 1, got {window_cycles}")
        self.window_cycles = window_cycles
        self.windows: list[TimelineWindow] = []
        self._prev: dict[str, int] = {}
        #: The cycle at which the next window closes.
        self.next_boundary = window_cycles

    def begin(self, stats: _StatsLike) -> None:
        """Take the opening snapshot (call once before the event loop)."""
        self.windows.clear()
        self._prev = _scalar_snapshot(stats)
        self.next_boundary = self.window_cycles

    def _close_window(
        self,
        start_cycle: int,
        end_cycle: int,
        stats: _StatsLike,
        active_slots: int,
    ) -> TimelineWindow:
        current = _scalar_snapshot(stats)
        delta = {
            key: current.get(key, 0) - self._prev.get(key, 0)
            for key in current
        }
        window = TimelineWindow(
            index=len(self.windows),
            start_cycle=start_cycle,
            end_cycle=end_cycle,
            vertex_accesses=(
                delta.get("vertex_high_hits", 0)
                + delta.get("vertex_low_hits", 0)
                + delta.get("vertex_misses", 0)
            ),
            vertex_hits=(
                delta.get("vertex_high_hits", 0)
                + delta.get("vertex_low_hits", 0)
            ),
            edge_accesses=(
                delta.get("edge_high_hits", 0)
                + delta.get("edge_low_hits", 0)
                + delta.get("edge_misses", 0)
            ),
            edge_hits=(
                delta.get("edge_high_hits", 0) + delta.get("edge_low_hits", 0)
            ),
            dram_accesses=(
                delta.get("vertex_misses", 0) + delta.get("edge_misses", 0)
            ),
            compute_cycles=delta.get("compute_cycles", 0),
            vertex_wait_cycles=delta.get("vertex_wait_cycles", 0),
            edge_wait_cycles=delta.get("edge_wait_cycles", 0),
            steals=delta.get("steals", 0),
            steal_attempts=delta.get("steal_attempts", 0),
            roots_dispatched=delta.get("roots_dispatched", 0),
            active_slots=active_slots,
        )
        self.windows.append(window)
        self._prev = current
        return window

    def advance(
        self, now: int, stats: _StatsLike, active_slots: int
    ) -> list[TimelineWindow]:
        """Close every window whose boundary ``now`` has reached or passed.

        ``active_slots`` is the number of busy slots across all PUs now.

        Returns the newly closed windows (usually none, sometimes one;
        several when the simulated clock jumps across multiple
        boundaries at once).  Counter deltas attribute to the window in
        which the clock *lands* — boundary alignment at cycle precision
        is not observable from an event-driven loop, and windows stay
        an exact partition of the run either way.
        """
        closed: list[TimelineWindow] = []
        while now >= self.next_boundary:
            closed.append(
                self._close_window(
                    self.next_boundary - self.window_cycles,
                    self.next_boundary,
                    stats,
                    active_slots,
                )
            )
            self.next_boundary += self.window_cycles
        return closed

    def finish(
        self, end: int, stats: _StatsLike, active_slots: int
    ) -> list[TimelineWindow]:
        """Flush boundaries up to ``end`` plus the final partial window."""
        closed = self.advance(end, stats, active_slots)
        last_end = self.windows[-1].end_cycle if self.windows else 0
        if end > last_end or not self.windows:
            closed.append(
                self._close_window(last_end, end, stats, active_slots)
            )
        return closed
