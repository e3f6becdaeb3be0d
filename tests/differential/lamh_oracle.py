"""Object-model oracle for the LAMH and the DRAM channels (paper §IV).

The textbook reading of the memory model the cycle simulator inlines on
flat lists: a :class:`Scratchpad` pinning a rank prefix and a
:class:`SetAssociativeCache` under an LRU or Equation-2 policy per side
(:class:`MemorySide`), a :class:`LocalityAwareHierarchy` pairing the two
sides, and a channelized :class:`DRAMModel`.  Every hierarchy is built from
the :class:`~repro.memory.hierarchy.LAMHGeometry` the simulator sizes
itself from, and publishes through the simulator's
:class:`~repro.memory.hierarchy.LAMHReport`, so sizing and rendering each
have one home.  ``ReferenceSimulator`` and ``OracleCPUMemory`` run on these
objects; ``tests/memory`` checks them against independent transcriptions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, Sequence

import numpy as np

from repro.accel.config import GramerConfig
from repro.accel.stats import SimStats
from repro.memory.hierarchy import LAMHGeometry, LAMHReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.csr import CSRGraph
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "AccessLevel",
    "CacheStats",
    "DRAMModel",
    "LineState",
    "LocalityAwareHierarchy",
    "LocalityPreservedPolicy",
    "LRUPolicy",
    "MemorySide",
    "ReplacementPolicy",
    "Scratchpad",
    "SetAssociativeCache",
    "SideStats",
    "build_hierarchy",
]


# -- replacement policies (§IV-C) ---------------------------------------------


@dataclass
class LineState:
    """Replacement-relevant metadata of one cache line."""

    valid: bool = False
    tag: int = -1
    rank: int = 0  # Rank(ON1(data)) of the resident line
    last_access: int = 0  # global access sequence number of last touch


class ReplacementPolicy(Protocol):
    """Chooses which way of a full set to evict."""

    name: str

    def victim(self, lines: Sequence[LineState], clock: int) -> int:
        """Index of the way to evict.  All lines are valid when called."""


class LRUPolicy:
    """Least-recently-used: evict the stalest line."""

    name = "lru"

    def victim(self, lines: Sequence[LineState], clock: int) -> int:
        return min(range(len(lines)), key=lambda w: lines[w].last_access)


class LocalityPreservedPolicy:
    """GRAMER's Equation (2): ``argmax Rank + λ·Rec``.

    ``rank_scale`` normalises the rank term so rank and recency compete on
    comparable magnitudes regardless of graph size; the default (1.0) uses
    raw ranks as the paper's formula states.
    """

    name = "locality-preserved"

    def __init__(self, lam: float = 1.0, rank_scale: float = 1.0) -> None:
        if lam < 0:
            raise ValueError("lambda must be >= 0")
        self.lam = lam
        self.rank_scale = rank_scale

    def victim(self, lines: Sequence[LineState], clock: int) -> int:
        def score(way: int) -> float:
            line = lines[way]
            recency = clock - line.last_access
            return line.rank * self.rank_scale + self.lam * recency

        return max(range(len(lines)), key=score)


# -- set-associative cache ----------------------------------------------------


@dataclass
class CacheStats:
    """Exact access accounting for one cache instance."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

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
                return
        way = self.policy.victim(lines, self._clock)
        if not 0 <= way < self.ways:
            raise ValueError(
                f"policy {self.policy.name!r} returned invalid way {way}"
            )
        self.stats.evictions += 1
        self._set_evictions[set_index] += 1
        self._install(lines[way], tag, rank)

    def _install(self, line: LineState, tag: int, rank: int) -> None:
        line.valid = True
        line.tag = tag
        line.rank = rank
        line.last_access = self._clock

    def set_eviction_counts(self) -> list[int]:
        """Evictions per set, in set order (copy)."""
        return list(self._set_evictions)

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


# -- scratchpad and DRAM ------------------------------------------------------


@dataclass
class Scratchpad:
    """Pinned storage for all items with ``rank < cutoff`` (§IV-B)."""

    cutoff: int
    hits: int = 0

    def __post_init__(self) -> None:
        if self.cutoff < 0:
            raise ValueError("cutoff must be >= 0")

    @property
    def capacity_entries(self) -> int:
        """Entries permanently resident."""
        return self.cutoff

    def holds(self, rank: int) -> bool:
        """Whether the item with this rank is resident (pure predicate)."""
        return rank < self.cutoff

    def access(self, rank: int) -> bool:
        """Access by rank; counts and returns residency."""
        if rank < self.cutoff:
            self.hits += 1
            return True
        return False


@dataclass
class DRAMModel:
    """Fixed latency plus ``channels`` servers, each starting one transfer
    every ``cycles_per_transfer`` cycles (the U250's four DDR4 channels)."""

    latency_cycles: int = 100
    channels: int = 4
    cycles_per_transfer: int = 2
    transfers: int = 0
    busy_cycles: int = 0
    _next_free: list[int] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.latency_cycles < 0 or self.channels < 1:
            raise ValueError("latency must be >= 0 and channels >= 1")
        if self.cycles_per_transfer < 1:
            raise ValueError("cycles_per_transfer must be >= 1")
        self._next_free = [0] * self.channels

    def service(self, issue_time: int, address: int = 0) -> int:
        """Serve a request issued at ``issue_time``; returns completion time.

        The request is steered to its address-interleaved channel (matching
        DDR channel interleaving); it starts when the channel frees up.
        """
        channel = address % self.channels
        start = max(issue_time, self._next_free[channel])
        self._next_free[channel] = start + self.cycles_per_transfer
        self.transfers += 1
        self.busy_cycles += self.cycles_per_transfer
        return start + self.latency_cycles

    def reset(self) -> None:
        """Clear channel state and counters."""
        self._next_free = [0] * self.channels
        self.transfers = 0
        self.busy_cycles = 0


# -- the hierarchy ------------------------------------------------------------


class AccessLevel(enum.Enum):
    """Where a request was served."""

    HIGH = "high"  # high-priority scratchpad (pinned)
    LOW_HIT = "low_hit"  # low-priority cache hit
    MISS = "miss"  # off-chip


@dataclass
class SideStats:
    """Access accounting for one side (vertex or edge)."""

    high_hits: int = 0
    low_hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        """Total accesses."""
        return self.high_hits + self.low_hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """On-chip hit ratio (high + low hits over all accesses)."""
        total = self.accesses
        return (self.high_hits + self.low_hits) / total if total else 0.0


class MemorySide:
    """One of the two isolated memories (vertex or edge).

    ``address_offset`` shifts this side's addresses inside a *shared* cache
    (the uniform baseline of Fig. 12).
    """

    def __init__(
        self,
        name: str,
        high_cutoff_rank: int,
        low_cache: SetAssociativeCache,
        address_offset: int = 0,
    ) -> None:
        self.name = name
        self.scratchpad = Scratchpad(cutoff=high_cutoff_rank)
        self.low_cache = low_cache
        self.address_offset = address_offset
        self.stats = SideStats()

    @property
    def capacity_entries(self) -> int:
        """High + low on-chip entries of this side."""
        return self.scratchpad.capacity_entries + self.low_cache.capacity_entries

    def access(self, address: int, rank: int) -> AccessLevel:
        """Serve one request: priority test, then cache lookup."""
        if self.scratchpad.access(rank):
            self.stats.high_hits += 1
            level = AccessLevel.HIGH
        elif self.low_cache.access(address + self.address_offset, rank):
            self.stats.low_hits += 1
            level = AccessLevel.LOW_HIT
        else:
            self.stats.misses += 1
            level = AccessLevel.MISS
        return level


class LocalityAwareHierarchy:
    """Vertex + edge memory pair with a shared rank mapping.

    ``edge_rank`` maps each CSR edge slot to its global rank position
    (:func:`~repro.memory.hierarchy.edge_rank_positions`).  When ``None``
    (the uniform baseline) the source vertex's rank is used.
    """

    def __init__(
        self,
        vertex_side: MemorySide,
        edge_side: MemorySide,
        vertex_rank: np.ndarray,
        edge_rank: np.ndarray | None = None,
    ) -> None:
        self.vertex_side = vertex_side
        self.edge_side = edge_side
        self.vertex_rank = vertex_rank
        self.edge_rank = edge_rank

    @classmethod
    def from_geometry(cls, geometry: LAMHGeometry) -> "LocalityAwareHierarchy":
        """The objects of one sized design point."""

        def low_cache(sets: int, line: int) -> SetAssociativeCache:
            policy: ReplacementPolicy = (
                LocalityPreservedPolicy(geometry.lam, geometry.rank_scale)
                if geometry.locality
                else LRUPolicy()
            )
            return SetAssociativeCache(
                num_sets=sets, ways=geometry.ways, line_size=line, policy=policy
            )

        vertex_cache = low_cache(geometry.vertex_sets, geometry.vertex_line)
        edge_cache = (
            vertex_cache
            if geometry.shared
            else low_cache(geometry.edge_sets, geometry.edge_line)
        )
        return cls(
            MemorySide("vertex", geometry.vertex_cutoff, vertex_cache),
            MemorySide(
                "edge",
                geometry.edge_cutoff,
                edge_cache,
                address_offset=geometry.edge_offset,
            ),
            geometry.vertex_rank,
            geometry.edge_rank,
        )

    def access_vertex(self, vid: int) -> AccessLevel:
        """Access vertex ``vid``'s CSR entry."""
        return self.vertex_side.access(vid, int(self.vertex_rank[vid]))

    def access_edge(self, index: int, src: int) -> AccessLevel:
        """Access edge slot ``index`` owned by source vertex ``src``."""
        if self.edge_rank is not None:
            rank = int(self.edge_rank[index])
        else:
            rank = int(self.vertex_rank[src])
        return self.edge_side.access(index, rank)

    @property
    def capacity_entries(self) -> int:
        """Total on-chip entries."""
        return self.vertex_side.capacity_entries + self.edge_side.capacity_entries

    def hit_ratios(self) -> dict[str, float]:
        """Per-side on-chip hit ratios (the Fig. 12a metric)."""
        return {
            "vertex": self.vertex_side.stats.hit_ratio,
            "edge": self.edge_side.stats.hit_ratio,
        }

    def report(self) -> LAMHReport:
        """This hierarchy's counts, as the simulator reports its own."""
        v, e = self.vertex_side.stats, self.edge_side.stats
        vertex_cache = self.vertex_side.low_cache
        edge_cache = self.edge_side.low_cache
        return LAMHReport(
            SimStats(
                vertex_high_hits=v.high_hits,
                vertex_low_hits=v.low_hits,
                vertex_misses=v.misses,
                edge_high_hits=e.high_hits,
                edge_low_hits=e.low_hits,
                edge_misses=e.misses,
            ),
            vertex_cache.set_eviction_counts(),
            None
            if vertex_cache is edge_cache
            else edge_cache.set_eviction_counts(),
        )

    def low_cache_pressure(self) -> dict[str, dict[str, object]]:
        """Set-pressure summaries of the low-priority caches by side."""
        return self.report().low_cache_pressure()

    def publish(self, registry: "MetricsRegistry") -> None:
        """Publish both sides plus their low-cache internals."""
        self.report().publish(registry)


def build_hierarchy(
    graph: "CSRGraph",
    config: GramerConfig,
    vertex_rank: np.ndarray | None = None,
) -> LocalityAwareHierarchy:
    """The hierarchy ``config`` sizes for ``graph`` (identity ranks by
    default), as :class:`~repro.accel.sim.GramerSimulator` sizes it."""
    if vertex_rank is None:
        vertex_rank = np.arange(graph.num_vertices, dtype=np.int64)
    return LocalityAwareHierarchy.from_geometry(
        LAMHGeometry.build(config, graph, vertex_rank)
    )
