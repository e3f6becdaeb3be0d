"""Per-access CPU hierarchy oracle for the record-then-resolve model.

``OracleCPUMemory`` charges every access through an L1/L2/L3 stack of
``SetAssociativeCache(LRUPolicy)`` the moment the engine makes it — the
textbook reading of the model that :class:`repro.baselines.cpu.CPUMemory`
resolves in bulk.  Both must agree on every ``CPUTimeBreakdown`` field and
on the post-L2 observer's call sequence.
"""

from __future__ import annotations

from repro.baselines.cpu import CPUConfig, CPUTimeBreakdown
from repro.graph.csr import CSRGraph

from .lamh_oracle import LRUPolicy, SetAssociativeCache

__all__ = ["OracleCPUMemory"]


class OracleCPUMemory:
    """Drop-in ``CPUMemory`` that charges each access as it happens."""

    def __init__(self, graph: CSRGraph, config: CPUConfig | None = None) -> None:
        self.config = config if config is not None else CPUConfig()
        cfg = self.config
        self.depth = 0
        self.breakdown = CPUTimeBreakdown()
        self._edge_region_base = graph.num_vertices * cfg.entry_bytes
        self._num_edge_slots = len(graph.neighbors)
        self.observer = None

        def level(total_bytes: int) -> SetAssociativeCache:
            lines = max(cfg.ways, total_bytes // cfg.line_bytes)
            return SetAssociativeCache(
                num_sets=max(1, lines // cfg.ways),
                ways=cfg.ways,
                line_size=cfg.line_bytes,
                policy=LRUPolicy(),
            )

        self.l1 = level(cfg.l1_bytes)
        self.l2 = level(cfg.l2_bytes)
        self.l3 = level(cfg.l3_bytes)

    def _charge(self, byte_address: int, is_vertex: bool) -> None:
        cfg = self.config
        bd = self.breakdown
        bd.accesses += 1
        bd.compute_cycles += cfg.cycles_per_access + cfg.l1_latency
        if self.l1.access(byte_address):
            return
        if self.l2.access(byte_address):
            stall = int(cfg.l2_latency * cfg.l2_stall_fraction)
            bd.compute_cycles += cfg.l2_latency - stall
            if stall == 0:
                return
        else:
            stall = cfg.l2_latency + cfg.l3_latency
            l3_hit = self.l3.access(byte_address)
            if not l3_hit:
                stall += cfg.dram_latency
            if self.observer is not None:
                self.observer(byte_address, is_vertex, not l3_hit)
        if is_vertex:
            bd.vertex_stall_cycles += stall
        else:
            bd.edge_stall_cycles += stall

    def resolve(self) -> None:
        """Nothing is ever pending: every access was charged on arrival."""

    def warm(self) -> None:
        """Stream one sequential sweep of both regions through every level."""
        line = self.config.line_bytes
        total = self._edge_region_base + self._num_edge_slots * self.config.entry_bytes
        for address in range(0, total, line):
            self.l1.access(address)
            self.l2.access(address)
            self.l3.access(address)
        self.breakdown = CPUTimeBreakdown()
        for cache in (self.l1, self.l2, self.l3):
            cache.stats.reset()

    def access(self, code: int) -> None:
        byte_address = code * self.config.entry_bytes
        self._charge(
            byte_address, is_vertex=byte_address < self._edge_region_base
        )

    def charge_candidate(self, count: int = 1) -> None:
        self.breakdown.compute_cycles += count * self.config.cycles_per_candidate

    def seconds(self, extra_overhead_s: float = 0.0) -> float:
        cfg = self.config
        serial = self.breakdown.total_cycles / (cfg.freq_ghz * 1e9)
        return serial / cfg.effective_parallelism + extra_overhead_s
