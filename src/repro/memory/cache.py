"""Set-associative cache model.

Functional (hit/miss) model used for the low-priority memory of the LAMH
(§IV-C) and for the uniform-cache baseline of Fig. 12.  Timing is layered
on top by the simulators; this module only answers "would this access
hit?" and keeps exact counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .policies import LineState, LRUPolicy, ReplacementPolicy

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry

__all__ = ["CacheStats", "SetAssociativeCache"]


@dataclass
class CacheStats:
    """Exact access accounting for one cache instance."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_ratio(self) -> float:
        """Hits over accesses (0.0 when never accessed)."""
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        """Zero all counters."""
        self.accesses = self.hits = self.misses = self.evictions = 0


class SetAssociativeCache:
    """A ``num_sets`` × ``ways`` cache over integer addresses.

    ``line_size`` addresses share a line (power of two not required); the
    tag is ``address // line_size``.  Each line carries a ``rank`` supplied
    by the caller at access time so rank-aware policies (Equation 2) can
    score victims without any reverse mapping.
    """

    def __init__(
        self,
        num_sets: int,
        ways: int,
        line_size: int = 1,
        policy: ReplacementPolicy | None = None,
    ) -> None:
        if num_sets < 1 or ways < 1 or line_size < 1:
            raise ValueError("num_sets, ways, line_size must all be >= 1")
        self.num_sets = num_sets
        self.ways = ways
        self.line_size = line_size
        self.policy = policy if policy is not None else LRUPolicy()
        self.stats = CacheStats()
        # Optional fill observer (repro.obs.hooks attaches one for
        # access-traced runs): called with (tag, rank) after a miss
        # installs its line.  Purely observational.
        self.fill_observer = None
        self._sets = [
            [LineState() for _ in range(ways)] for _ in range(num_sets)
        ]
        self._set_evictions = [0] * num_sets
        self._clock = 0

    @property
    def capacity_entries(self) -> int:
        """Total data entries the cache can hold."""
        return self.num_sets * self.ways * self.line_size

    def _locate(self, address: int) -> tuple[int, int]:
        tag = address // self.line_size
        return tag % self.num_sets, tag

    def access(self, address: int, rank: int = 0) -> bool:
        """Access ``address``; returns ``True`` on hit, filling on miss."""
        self._clock += 1
        self.stats.accesses += 1
        set_index, tag = self._locate(address)
        lines = self._sets[set_index]
        for line in lines:
            if line.valid and line.tag == tag:
                line.last_access = self._clock
                self.stats.hits += 1
                return True
        self.stats.misses += 1
        self._fill(set_index, lines, tag, rank)
        return False

    def probe(self, address: int) -> bool:
        """Whether ``address`` is resident, without touching any state."""
        set_index, tag = self._locate(address)
        return any(
            line.valid and line.tag == tag for line in self._sets[set_index]
        )

    def _fill(
        self, set_index: int, lines: list[LineState], tag: int, rank: int
    ) -> None:
        for line in lines:
            if not line.valid:
                self._install(line, tag, rank)
                if self.fill_observer is not None:
                    self.fill_observer(tag, rank)
                return
        way = self.policy.victim(lines, self._clock)
        if not 0 <= way < self.ways:
            raise ValueError(
                f"policy {self.policy.name!r} returned invalid way {way}"
            )
        self.stats.evictions += 1
        self._set_evictions[set_index] += 1
        self._install(lines[way], tag, rank)
        if self.fill_observer is not None:
            self.fill_observer(tag, rank)

    def _install(self, line: LineState, tag: int, rank: int) -> None:
        line.valid = True
        line.tag = tag
        line.rank = rank
        line.last_access = self._clock
        line.fill_seq = self._clock

    def set_eviction_counts(self) -> list[int]:
        """Evictions per set, in set order (copy)."""
        return list(self._set_evictions)

    def set_pressure(self, hot_sets: int = 3) -> dict[str, object]:
        """Per-set eviction pressure summary for the profile report.

        Uneven pressure (a few sets absorbing most evictions) is the
        conflict-miss signature the set-indexed layout can hide behind an
        innocuous aggregate hit ratio.
        """
        counts = self._set_evictions
        total = sum(counts)
        hottest = sorted(
            range(self.num_sets), key=lambda i: (-counts[i], i)
        )[:hot_sets]
        return {
            "sets": self.num_sets,
            "evictions": total,
            "max": max(counts) if counts else 0,
            "mean": total / self.num_sets if self.num_sets else 0.0,
            "hot_sets": [(i, counts[i]) for i in hottest if counts[i]],
        }

    def publish(self, registry: "MetricsRegistry", **labels: object) -> None:
        """Publish access counters into a metrics registry.

        Extra ``labels`` (e.g. ``cache="vertex"``) distinguish instances
        sharing one registry.
        """
        events = registry.counter(
            "cache_events_total", "set-associative cache events by kind"
        )
        events.inc(self.stats.hits, event="hit", **labels)
        events.inc(self.stats.misses, event="miss", **labels)
        events.inc(self.stats.evictions, event="eviction", **labels)
        registry.gauge(
            "cache_hit_ratio", "hits over accesses per cache instance"
        ).set(self.stats.hit_ratio, **labels)
        pressure = registry.histogram(
            "cache_set_evictions", "distribution of evictions across sets"
        )
        for count in self._set_evictions:
            pressure.observe(count, **labels)

    def resident_tags(self) -> set[int]:
        """All currently valid tags (for invariants in tests)."""
        return {
            line.tag
            for lines in self._sets
            for line in lines
            if line.valid
        }

    def flush(self) -> None:
        """Invalidate every line (counters are kept)."""
        for lines in self._sets:
            for line in lines:
                line.valid = False
                line.tag = -1
