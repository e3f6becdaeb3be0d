"""CPU cache-hierarchy timing model.

Both software baselines (Fractal, RStream) ran on a 14-core Intel E5-2680 v4
(32 KB L1 + 256 KB L2 per core, 35 MB shared L3, 4-channel DDR4 — §II-B).
This module models that memory system as three levels of set-associative
caches over the engine's access stream and produces the cycle/stall
accounting behind Fig. 3 and the baseline runtimes of Table III.

The model is trace-driven and single-stream: the engine's access sequence
flows through one L1/L2/L3 stack, and multicore throughput is applied as a
parallel-efficiency divisor on the final runtime (mining parallelises over
initial embeddings nearly perfectly, the paper's frameworks use all 14
cores).  Per-operation instruction costs model the software framework
overhead (object churn, canonicality hashing, task management) that §VI-B
credits for GRAMER's large wins on small graphs; they are calibration
constants, documented in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["CPUConfig", "CPUMemory", "CPUTimeBreakdown"]


@dataclass(frozen=True)
class CPUConfig:
    """Xeon E5-2680 v4 model parameters."""

    l1_bytes: int = 32 * 1024
    l2_bytes: int = 256 * 1024
    l3_bytes: int = 35 * 1024 * 1024
    line_bytes: int = 64
    ways: int = 8
    entry_bytes: int = 8  # one vertex offset record / one edge slot

    l1_latency: int = 4  # cycles, incremental per level
    l2_latency: int = 12
    l3_latency: int = 42
    dram_latency: int = 180
    # Fraction of an L2 hit's latency attributed to stall; the rest is
    # hidden by the out-of-order window.  VTune's memory-bound stalls (the
    # Fig. 3 methodology) are dominated by LLC/DRAM time but L2-bound time
    # is not fully overlapped either, so half counts by default.
    l2_stall_fraction: float = 0.5

    freq_ghz: float = 2.4
    cores: int = 14
    parallel_efficiency: float = 0.85

    # Software framework overhead (instructions retired per engine event).
    cycles_per_access: int = 3  # address arithmetic, bounds, loads
    cycles_per_candidate: int = 60  # candidate object + canonicality bookkeeping

    @property
    def effective_parallelism(self) -> float:
        """Throughput multiplier from multicore execution."""
        return self.cores * self.parallel_efficiency


@dataclass
class CPUTimeBreakdown:
    """Cycle accounting of one trace replay (single-stream cycles)."""

    compute_cycles: int = 0
    vertex_stall_cycles: int = 0
    edge_stall_cycles: int = 0
    accesses: int = 0

    @property
    def total_cycles(self) -> int:
        """All cycles of the single-stream replay."""
        return (
            self.compute_cycles
            + self.vertex_stall_cycles
            + self.edge_stall_cycles
        )

    def stall_fractions(self) -> dict[str, float]:
        """Fig. 3's breakdown: vertex / edge stall and 'others' shares."""
        total = self.total_cycles
        if total == 0:
            return {"vertex": 0.0, "edge": 0.0, "others": 1.0}
        vertex = self.vertex_stall_cycles / total
        edge = self.edge_stall_cycles / total
        return {"vertex": vertex, "edge": edge, "others": 1.0 - vertex - edge}


class _LRULevel:
    """One cache level as per-set move-to-front tag lists (pure LRU).

    A set's list holds its resident line tags, most recently used first,
    so an access hits exactly when its tag is in the list.
    """

    def __init__(self, total_bytes: int, config: CPUConfig) -> None:
        lines = max(config.ways, total_bytes // config.line_bytes)
        self.num_sets = max(1, lines // config.ways)
        self.ways = config.ways
        self.sets: list[list[int]] = [[] for _ in range(self.num_sets)]

    def misses(self, tags: list[int]) -> list[int]:
        """Run ``tags`` through the level in order; positions that missed."""
        sets = self.sets
        num_sets = self.num_sets
        ways = self.ways
        missed: list[int] = []
        for position, tag in enumerate(tags):
            resident = sets[tag % num_sets]
            if tag in resident:
                if resident[0] != tag:
                    resident.remove(tag)
                    resident.insert(0, tag)
            else:
                resident.insert(0, tag)
                if len(resident) > ways:
                    resident.pop()
                missed.append(position)
        return missed

    def load_sweep(self, num_lines: int) -> None:
        """Contents after touching lines ``0 .. num_lines-1`` once, in order.

        Each set ends up holding the last ``ways`` swept lines that map to
        it, most recently used first.  Every line the model can hold lies
        inside the sweep, so a set swept fewer than ``ways`` times has no
        older line left to keep.
        """
        num_sets = self.num_sets
        for index in range(min(num_sets, num_lines)):
            last = index + (num_lines - 1 - index) // num_sets * num_sets
            self.sets[index] = list(range(last, -1, -num_sets)[: self.ways])


#: Accesses recorded before the hierarchy resolves them in bulk.  The bound
#: is checked whenever a driver sets ``depth`` (once per DFS frame or BFS
#: embedding), so the pending stream holds at most this many codes plus one
#: frame's accesses, however long the run.
_PENDING_LIMIT = 8192


class CPUMemory:
    """MemoryModel charging the engine's accesses to an L1/L2/L3 stack.

    Vertex records and edge slots live in disjoint address regions (CSR
    offsets array followed by the neighbors array), so spatial locality
    within adjacency slices is modeled faithfully through the 64-byte lines.
    Stall attribution: the L1 latency is considered pipelined/overlappable
    (part of compute); anything beyond L1 counts as stall cycles for the
    access's dimension — mirroring how VTune attributes memory-bound stalls
    in the paper's Fig. 3 methodology.

    Accesses are recorded, then resolved in bulk: ``access`` is the
    pending list's own ``append``, so recording a
    :class:`~repro.mining.engine.MemoryModel` code (the access's CSR word
    address) runs no Python code.  A full buffer at a ``depth`` change or
    any read of ``breakdown`` turns the pending codes into byte addresses
    (``code * entry_bytes``: the offsets array, then the neighbors array)
    and runs them level by level — L1 over the whole stream, L2 over L1's
    misses, L3 over L2's misses — with the cycle sums taken from per-level
    hit and miss counts.  Every level is a pure LRU, so the result equals
    charging each access through the stack as it happens.
    """

    def __init__(self, graph: CSRGraph, config: CPUConfig | None = None) -> None:
        self.config = config if config is not None else CPUConfig()
        cfg = self.config
        self._depth = 0
        self._breakdown = CPUTimeBreakdown()
        self._entry_bytes = cfg.entry_bytes
        self._edge_region_base = graph.num_vertices * cfg.entry_bytes
        self._num_edge_slots = len(graph.neighbors)
        self._pending: list[int] = []
        self.access: Callable[[int], None] = self._pending.append
        # Line of the last resolved access: an immediate repeat of it is an
        # L1 hit that changes no state.
        self._last_line = -1
        # Optional post-L2 miss observer (repro.obs.hooks attaches one for
        # access-traced runs): called with (byte_address, is_vertex,
        # went_to_dram) at resolve time, in stream order.  Purely
        # observational.
        self.observer = None
        self.l1 = _LRULevel(cfg.l1_bytes, cfg)
        self.l2 = _LRULevel(cfg.l2_bytes, cfg)
        self.l3 = _LRULevel(cfg.l3_bytes, cfg)

    @property
    def depth(self) -> int:
        """Size of the embedding being extended (set by the drivers)."""
        return self._depth

    @depth.setter
    def depth(self, value: int) -> None:
        self._depth = value
        if len(self._pending) >= _PENDING_LIMIT:
            self.resolve()

    @property
    def breakdown(self) -> CPUTimeBreakdown:
        """Cycle accounting, including every access recorded so far."""
        self.resolve()
        return self._breakdown

    def resolve(self) -> None:
        """Charge the pending accesses to the hierarchy and the breakdown."""
        pending = self._pending
        if not pending:
            return
        cfg = self.config
        bd = self._breakdown
        addresses = np.array(pending, dtype=np.int64) * self._entry_bytes
        pending.clear()
        lines = addresses // cfg.line_bytes
        previous = np.concatenate(([self._last_line], lines[:-1]))
        self._last_line = int(lines[-1])

        # Each level sees the previous level's misses, in stream order.
        l1_seen = np.flatnonzero(lines != previous)
        l1_miss = l1_seen[self.l1.misses(lines[l1_seen].tolist())]
        l2_miss = l1_miss[self.l2.misses(lines[l1_miss].tolist())]
        dram = np.zeros(len(l2_miss), dtype=bool)
        dram[self.l3.misses(lines[l2_miss].tolist())] = True

        # The vertex region (CSR offsets) ends where the edge region starts.
        is_vertex = addresses < self._edge_region_base
        vertex_l2_hits = int(np.count_nonzero(is_vertex[l1_miss])) - int(
            np.count_nonzero(is_vertex[l2_miss])
        )
        l2_hits = len(l1_miss) - len(l2_miss)
        miss_vertex = is_vertex[l2_miss]
        vertex_misses = int(np.count_nonzero(miss_vertex))
        vertex_dram = int(np.count_nonzero(miss_vertex & dram))
        dram_total = int(np.count_nonzero(dram))

        l2_stall = int(cfg.l2_latency * cfg.l2_stall_fraction)
        miss_stall = cfg.l2_latency + cfg.l3_latency
        bd.accesses += len(addresses)
        bd.compute_cycles += len(addresses) * (
            cfg.cycles_per_access + cfg.l1_latency
        ) + l2_hits * (cfg.l2_latency - l2_stall)
        bd.vertex_stall_cycles += (
            vertex_l2_hits * l2_stall
            + vertex_misses * miss_stall
            + vertex_dram * cfg.dram_latency
        )
        bd.edge_stall_cycles += (
            (l2_hits - vertex_l2_hits) * l2_stall
            + (len(l2_miss) - vertex_misses) * miss_stall
            + (dram_total - vertex_dram) * cfg.dram_latency
        )
        if self.observer is not None:
            for event in zip(
                addresses[l2_miss].tolist(), miss_vertex.tolist(), dram.tolist()
            ):
                self.observer(*event)

    def warm(self) -> None:
        """Pre-load the graph sequentially and zero the counters.

        The paper starts timing "once the input graph is loaded to the
        memory of the server", so steady-state cache contents — not cold
        misses — drive its measurements.  At proxy scale a cold pass is a
        visible fraction of the whole (small) run, so experiments warm the
        hierarchy with one sequential sweep of both regions first.  Each
        level's post-sweep contents are set directly.
        """
        self.resolve()
        line = self.config.line_bytes
        total = self._edge_region_base + self._num_edge_slots * self.config.entry_bytes
        num_lines = -(-total // line)
        for level in (self.l1, self.l2, self.l3):
            level.load_sweep(num_lines)
        self._last_line = -1
        self._breakdown = CPUTimeBreakdown()

    def charge_candidate(self, count: int = 1) -> None:
        """Framework overhead for processing ``count`` candidates."""
        self._breakdown.compute_cycles += (
            count * self.config.cycles_per_candidate
        )

    def seconds(self, extra_overhead_s: float = 0.0) -> float:
        """Wall-clock estimate: parallel replay plus fixed overheads."""
        cfg = self.config
        serial = self.breakdown.total_cycles / (cfg.freq_ghz * 1e9)
        return serial / cfg.effective_parallelism + extra_overhead_s
