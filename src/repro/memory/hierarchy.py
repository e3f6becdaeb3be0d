"""The locality-aware memory hierarchy (LAMH) — paper §IV, Fig. 7.

On-chip memory is split into a *vertex memory* and an *edge memory*
(isolating the two access streams avoids thrashing between them); each side
is further split into a **high-priority** scratchpad that permanently pins
the top-τ data by ON1 rank and a **low-priority** four-way set-associative
cache run under the locality-preserved replacement policy (Equation 2).

The hierarchy is functional: an access returns *where* it was served
(:class:`AccessLevel`); the accelerator simulator attaches latencies and
partition contention on top.  Ranks arrive with each request — after graph
reordering the vertex ID *is* the rank, and an edge inherits the rank of its
source vertex (``ON1(edge) = ON1(v_src)``), so the controller's priority
test is a single comparison, faithfully to §IV-C's reordering trick.

τ defaults to the paper's sizing rule ``MIN(50%, |Memory| / (2(|V|+|E|)))``
(§VI-A) and the low-priority side mirrors the high-priority capacity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.graph.csr import CSRGraph

from .cache import SetAssociativeCache
from .policies import LocalityPreservedPolicy, LRUPolicy, ReplacementPolicy
from .scratchpad import Scratchpad

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "AccessLevel",
    "SideStats",
    "MemorySide",
    "LocalityAwareHierarchy",
    "default_tau",
    "edge_cutoff_rank",
    "build_hierarchy",
]


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
    — used only by the Uniform-LRU baseline of Fig. 12, where vertex and
    edge data contend for one undifferentiated cache (LAMH's vertex/edge
    isolation, §IV-A, is precisely what that baseline lacks).
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

    def publish(self, registry: "MetricsRegistry") -> None:
        """Publish this side's level counters into a metrics registry."""
        accesses = registry.counter(
            "memory_accesses_total",
            "hierarchy requests by side and service level",
        )
        accesses.inc(self.stats.high_hits, side=self.name, level="high")
        accesses.inc(self.stats.low_hits, side=self.name, level="low")
        accesses.inc(self.stats.misses, side=self.name, level="miss")
        registry.gauge(
            "memory_hit_ratio", "on-chip hit ratio per side"
        ).set(self.stats.hit_ratio, side=self.name)


class LocalityAwareHierarchy:
    """Vertex + edge memory pair with a shared rank mapping.

    ``edge_rank`` maps each CSR edge slot to its global rank position when
    slots are ordered by their source vertex's ON1 rank — i.e. the physical
    position the slot would occupy in the reordered graph's edge array, so
    "pinned" is a plain prefix test at slot granularity (§IV-B/C).  When
    ``None`` (the uniform baseline) the source vertex's rank is used.
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

    def low_cache_pressure(self) -> dict[str, dict[str, object]]:
        """Set-pressure summaries of the low-priority caches by side.

        The uniform baseline shares one cache between both sides; it
        appears once under ``"shared"``.
        """
        vertex_cache = self.vertex_side.low_cache
        edge_cache = self.edge_side.low_cache
        if vertex_cache is edge_cache:
            return {"shared": vertex_cache.set_pressure()}
        return {
            "vertex": vertex_cache.set_pressure(),
            "edge": edge_cache.set_pressure(),
        }

    def publish(self, registry: "MetricsRegistry") -> None:
        """Publish both sides plus their low-cache internals."""
        self.vertex_side.publish(registry)
        self.edge_side.publish(registry)
        vertex_cache = self.vertex_side.low_cache
        edge_cache = self.edge_side.low_cache
        if vertex_cache is edge_cache:
            vertex_cache.publish(registry, cache="shared")
        else:
            vertex_cache.publish(registry, cache="vertex")
            edge_cache.publish(registry, cache="edge")


def default_tau(graph: CSRGraph, total_entries: int) -> float:
    """The paper's τ rule: ``MIN(50%, |Memory| / (2(|V| + |E|)))``.

    Capacities and data sizes are in entries; edge data is counted in CSR
    slots (each undirected edge stored twice), matching what the on-chip
    memory actually holds.
    """
    data_entries = graph.num_vertices + len(graph.neighbors)
    return min(0.5, total_entries / (2 * data_entries))


def edge_cutoff_rank(
    graph: CSRGraph, vertex_rank: np.ndarray, target_slots: int
) -> tuple[int, int]:
    """Largest rank prefix whose adjacency slots fit ``target_slots``.

    Returns ``(cutoff_rank, slots_used)``: edges whose source vertex has
    rank below ``cutoff_rank`` are high priority.  Cutting at vertex
    boundaries keeps whole adjacency slices resident, as the reordered CSR
    prefix does in the paper.
    """
    degrees = graph.degrees()
    degrees_by_rank = np.zeros(graph.num_vertices, dtype=np.int64)
    degrees_by_rank[vertex_rank] = degrees
    cumulative = np.cumsum(degrees_by_rank)
    cutoff = int(np.searchsorted(cumulative, target_slots, side="right"))
    slots_used = int(cumulative[cutoff - 1]) if cutoff > 0 else 0
    return cutoff, slots_used


def edge_rank_positions(graph: CSRGraph, vertex_rank: np.ndarray) -> np.ndarray:
    """Global rank position of every CSR edge slot.

    Position of each slot when all slots are ordered by their source
    vertex's rank (ties kept in slice order) — the physical address the
    slot would have in the reordered graph, making the §IV-B priority test
    a single prefix comparison at *slot* granularity.
    """
    src_per_slot = np.repeat(
        np.arange(graph.num_vertices, dtype=np.int64), graph.degrees()
    )
    order = np.lexsort(
        (np.arange(len(src_per_slot)), vertex_rank[src_per_slot])
    )
    positions = np.empty(len(src_per_slot), dtype=np.int64)
    positions[order] = np.arange(len(src_per_slot))
    return positions


def _make_cache(
    capacity: int, ways: int, line_size: int, policy: ReplacementPolicy
) -> SetAssociativeCache:
    num_sets = max(1, capacity // (ways * line_size))
    return SetAssociativeCache(
        num_sets=num_sets, ways=ways, line_size=line_size, policy=policy
    )


def build_hierarchy(
    graph: CSRGraph,
    total_entries: int,
    vertex_rank: np.ndarray | None = None,
    tau: float | None = None,
    low_policy: str = "locality",
    lam: float = 1.0,
    ways: int = 4,
    vertex_line: int = 1,
    edge_line: int = 4,
) -> LocalityAwareHierarchy:
    """Construct a hierarchy design point.

    ``low_policy`` selects the Fig. 12 variants:

    * ``"locality"`` — full LAMH (Equation 2 replacement, balance ``lam``),
    * ``"lru"`` — *Static + LRU*: same high/low split, LRU low side,
    * ``"uniform"`` — *Uniform LRU*: no pinning; the whole budget is one
      LRU cache per side.

    ``tau`` overrides the paper's sizing rule (used by the Fig. 14a sweep,
    where the low side always mirrors the high side).
    """
    if total_entries < 2:
        raise ValueError("total_entries must be >= 2")
    if vertex_rank is None:
        vertex_rank = np.arange(graph.num_vertices, dtype=np.int64)
    else:
        vertex_rank = np.asarray(vertex_rank, dtype=np.int64)
        if len(vertex_rank) != graph.num_vertices:
            raise ValueError("vertex_rank must have one entry per vertex")

    num_slots = len(graph.neighbors)
    if low_policy == "uniform":
        # Fig. 12's baseline: one undifferentiated LRU cache shared by
        # vertex and edge data (no pinning, no vertex/edge isolation).
        # Edge addresses are offset past the vertex region so both streams
        # contend for the same sets.
        shared = _make_cache(total_entries, ways, edge_line, LRUPolicy())
        vertex_side = MemorySide("vertex", 0, shared)
        edge_side = MemorySide(
            "edge", 0, shared, address_offset=graph.num_vertices
        )
        return LocalityAwareHierarchy(vertex_side, edge_side, vertex_rank)

    if low_policy == "locality":
        def policy_factory() -> ReplacementPolicy:
            return LocalityPreservedPolicy(lam=lam)
    elif low_policy == "lru":
        def policy_factory() -> ReplacementPolicy:
            return LRUPolicy()
    else:
        raise ValueError(
            f"unknown low_policy {low_policy!r}; "
            "expected 'locality', 'lru', or 'uniform'"
        )

    effective_tau = tau if tau is not None else default_tau(graph, total_entries)
    if not 0.0 < effective_tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {effective_tau}")

    vertex_cutoff = max(1, int(round(effective_tau * graph.num_vertices)))
    edge_cutoff = max(1, int(round(effective_tau * num_slots))) if num_slots else 0

    vertex_side = MemorySide(
        "vertex",
        vertex_cutoff,
        _make_cache(vertex_cutoff, ways, vertex_line, policy_factory()),
    )
    edge_side = MemorySide(
        "edge",
        edge_cutoff,
        _make_cache(
            max(edge_cutoff, ways * edge_line),
            ways,
            edge_line,
            policy_factory(),
        ),
    )
    return LocalityAwareHierarchy(
        vertex_side,
        edge_side,
        vertex_rank,
        edge_rank=edge_rank_positions(graph, vertex_rank),
    )
