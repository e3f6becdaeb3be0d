"""The locality-aware memory hierarchy (LAMH) — paper §IV, Fig. 7.

On-chip memory is split into a *vertex memory* and an *edge memory*
(isolating the two access streams avoids thrashing between them); each side
is further split into a **high-priority** scratchpad that permanently pins
the top-τ data by ON1 rank and a **low-priority** four-way set-associative
cache run under the locality-preserved replacement policy (Equation 2)::

    victim = argmax_v  Rank(ON1(v)) + λ · Rec(v)

where ``Rec(v)`` is the number of accesses since ``v`` was last referenced.
``λ = 0`` degenerates to rank-only (a second static memory), large ``λ``
to LRU; the paper uses ``λ = 1`` and sweeps it in Fig. 14(b).

This module sizes one design point (:class:`LAMHGeometry`) and reports a
run's counts (:class:`LAMHReport`).  The cycle simulator models the traffic
itself on flat lists shaped by the geometry.  Ranks arrive with each
request — after graph reordering the vertex ID *is* the rank, and an edge
inherits the rank of its source vertex (``ON1(edge) = ON1(v_src)``), so the
controller's priority test is a single comparison, faithfully to §IV-C's
reordering trick.

τ defaults to the paper's sizing rule ``MIN(50%, |Memory| / (2(|V|+|E|)))``
(§VI-A) and the low-priority side mirrors the high-priority capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.graph.csr import CSRGraph

if TYPE_CHECKING:
    from repro.accel.config import GramerConfig
    from repro.accel.stats import SimStats
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "LAMHGeometry",
    "LAMHReport",
    "default_tau",
    "edge_rank_positions",
]


@dataclass(frozen=True, eq=False)
class LAMHGeometry:
    """Sizing of one LAMH design point, built once per run.

    A request whose rank is below its side's cutoff is served by the
    scratchpad.  Any other request looks up line
    ``tag = (address + offset) // line`` in set ``tag % sets`` of its
    side's ``ways``-way low cache, where ``offset`` is ``edge_offset`` for
    edges and 0 for vertices.

    ``GramerConfig.low_policy`` selects the Fig. 12 variants:

    * ``"locality"`` — full LAMH (Equation 2 replacement, balance ``lam``),
    * ``"lru"`` — *Static + LRU*: same high/low split, LRU low side,
    * ``"uniform"`` — *Uniform LRU*: no pinning; one LRU cache holding the
      whole budget is shared by vertex and edge data (``shared``).  Edge
      addresses are offset past the vertex region so both streams contend
      for the same sets — LAMH's vertex/edge isolation (§IV-A) is precisely
      what that baseline lacks.
    """

    vertex_cutoff: int
    edge_cutoff: int
    ways: int
    vertex_sets: int
    edge_sets: int
    vertex_line: int
    edge_line: int
    shared: bool
    edge_offset: int
    vertex_rank: np.ndarray
    #: Rank of each CSR edge slot (:func:`edge_rank_positions`); ``None``
    #: in the uniform baseline, where an edge takes its source's rank.
    edge_rank: np.ndarray | None
    locality: bool  # Equation 2 replacement; LRU otherwise
    lam: float
    #: Weight of the rank term in Equation 2; raw ranks, as the paper's
    #: formula states.
    rank_scale: float = 1.0

    @classmethod
    def build(
        cls,
        config: "GramerConfig",
        graph: CSRGraph,
        vertex_rank: np.ndarray,
    ) -> "LAMHGeometry":
        """Size the LAMH of ``config`` for ``graph`` under ``vertex_rank``.

        ``config.tau`` overrides the paper's sizing rule (used by the
        Fig. 14a sweep, where the low side always mirrors the high side).
        """
        vertex_rank = np.asarray(vertex_rank, dtype=np.int64)
        if len(vertex_rank) != graph.num_vertices:
            raise ValueError("vertex_rank must have one entry per vertex")
        total = config.onchip_entries
        ways = config.cache_ways
        edge_line = config.edge_line_entries
        if config.low_policy == "uniform":
            sets = max(1, total // (ways * edge_line))
            return cls(
                vertex_cutoff=0,
                edge_cutoff=0,
                ways=ways,
                vertex_sets=sets,
                edge_sets=sets,
                vertex_line=edge_line,
                edge_line=edge_line,
                shared=True,
                edge_offset=graph.num_vertices,
                vertex_rank=vertex_rank,
                edge_rank=None,
                locality=False,
                lam=config.lam,
            )

        tau = config.tau if config.tau is not None else default_tau(graph, total)
        num_slots = len(graph.neighbors)
        vertex_cutoff = max(1, int(round(tau * graph.num_vertices)))
        edge_cutoff = max(1, int(round(tau * num_slots))) if num_slots else 0
        vertex_line = config.vertex_line_entries
        return cls(
            vertex_cutoff=vertex_cutoff,
            edge_cutoff=edge_cutoff,
            ways=ways,
            vertex_sets=max(1, vertex_cutoff // (ways * vertex_line)),
            edge_sets=max(1, edge_cutoff // (ways * edge_line)),
            vertex_line=vertex_line,
            edge_line=edge_line,
            shared=False,
            edge_offset=0,
            vertex_rank=vertex_rank,
            edge_rank=edge_rank_positions(graph, vertex_rank),
            locality=config.low_policy == "locality",
            lam=config.lam,
        )


class LAMHReport:
    """Counts of one run's LAMH traffic: service levels and set pressure.

    Built from the run's per-side counters (``SimStats``) and the
    evictions per set of each low cache.  ``edge_evictions`` is ``None``
    when both sides share one low cache (the uniform baseline); that
    cache is reported once, under ``"shared"``.
    """

    def __init__(
        self,
        stats: "SimStats",
        vertex_evictions: Sequence[int],
        edge_evictions: Sequence[int] | None,
    ) -> None:
        vertex = (
            stats.vertex_high_hits, stats.vertex_low_hits, stats.vertex_misses
        )
        edge = (stats.edge_high_hits, stats.edge_low_hits, stats.edge_misses)
        #: Side name -> (high hits, low hits, misses).
        self.sides = {"vertex": vertex, "edge": edge}
        #: Low cache name -> (hits, misses, evictions per set).
        self.caches: dict[str, tuple[int, int, list[int]]]
        if edge_evictions is None:
            self.caches = {
                "shared": (
                    vertex[1] + edge[1],
                    vertex[2] + edge[2],
                    list(vertex_evictions),
                )
            }
        else:
            self.caches = {
                "vertex": (vertex[1], vertex[2], list(vertex_evictions)),
                "edge": (edge[1], edge[2], list(edge_evictions)),
            }

    def low_cache_pressure(
        self, hot_sets: int = 3
    ) -> dict[str, dict[str, object]]:
        """Per-set eviction pressure of each low cache, for the profile.

        Uneven pressure (a few sets absorbing most evictions) is the
        conflict-miss signature the set-indexed layout can hide behind an
        innocuous aggregate hit ratio.
        """
        pressure: dict[str, dict[str, object]] = {}
        for name, (_, _, counts) in self.caches.items():
            total = sum(counts)
            hottest = sorted(
                range(len(counts)), key=lambda i: (-counts[i], i)
            )[:hot_sets]
            pressure[name] = {
                "sets": len(counts),
                "evictions": total,
                "max": max(counts),
                "mean": total / len(counts),
                "hot_sets": [(i, counts[i]) for i in hottest if counts[i]],
            }
        return pressure

    def publish(self, registry: "MetricsRegistry") -> None:
        """Publish side levels and low-cache counters into ``registry``."""
        accesses = registry.counter(
            "memory_accesses_total",
            "hierarchy requests by side and service level",
        )
        side_ratio = registry.gauge(
            "memory_hit_ratio", "on-chip hit ratio per side"
        )
        for side, (high, low, miss) in self.sides.items():
            accesses.inc(high, side=side, level="high")
            accesses.inc(low, side=side, level="low")
            accesses.inc(miss, side=side, level="miss")
            total = high + low + miss
            side_ratio.set((high + low) / total if total else 0.0, side=side)
        events = registry.counter(
            "cache_events_total", "set-associative cache events by kind"
        )
        cache_ratio = registry.gauge(
            "cache_hit_ratio", "hits over accesses per cache instance"
        )
        set_evictions = registry.histogram(
            "cache_set_evictions", "distribution of evictions across sets"
        )
        for name, (hits, misses, counts) in self.caches.items():
            events.inc(hits, event="hit", cache=name)
            events.inc(misses, event="miss", cache=name)
            events.inc(sum(counts), event="eviction", cache=name)
            total = hits + misses
            cache_ratio.set(hits / total if total else 0.0, cache=name)
            for count in counts:
                set_evictions.observe(count, cache=name)


def default_tau(graph: CSRGraph, total_entries: int) -> float:
    """The paper's τ rule: ``MIN(50%, |Memory| / (2(|V| + |E|)))``.

    Capacities and data sizes are in entries; edge data is counted in CSR
    slots (each undirected edge stored twice), matching what the on-chip
    memory actually holds.
    """
    data_entries = graph.num_vertices + len(graph.neighbors)
    return min(0.5, total_entries / (2 * data_entries))


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
