"""GRAMER accelerator configuration (paper §VI-A defaults).

The paper's build: a Xilinx Alveo U250 (11.8 MB BRAM, four 16 GB DDR4
channels) hosting 8 PUs, each with a 16-entry slot buffer, a 16-entry
stealing buffer, and 16 ancestor buffers of depth 16 — so up to
8 × 16 = 128 embeddings in flight.  On-chip memory is organized as 8
partitions, each split into vertex and edge memory, each of those split into
a high-priority scratchpad and a 4-way set-associative low-priority cache.
The card is clocked conservatively at 200 MHz.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

__all__ = ["GramerConfig", "ALVEO_U250_BRAM_BYTES"]

# XCU250 BRAM capacity the paper quotes (11.8 MB).
ALVEO_U250_BRAM_BYTES = int(11.8 * 2**20)


@dataclass(frozen=True)
class GramerConfig:
    """All tunables of the simulated accelerator.

    Capacities are in *entries* (one CSR vertex offset record or one edge
    slot), ``entry_bytes`` wide each.  The default on-chip budget models the
    fraction of U250 BRAM the paper dedicates to graph data (~66% BRAM
    utilization in Table II, most of it the vertex/edge memories).
    """

    # -- processing units -------------------------------------------------
    num_pus: int = 8
    slots_per_pu: int = 16
    ancestor_depth: int = 16
    work_stealing: bool = True
    steal_victim_select: str = "stealing_buffer"  # or "random" (LFSR [8])
    arbitrator: str = "round_robin"  # or "degree_balanced" (ablation)

    # -- on-chip memory ----------------------------------------------------
    onchip_entries: int = 1 << 20  # total vertex+edge entries on chip
    entry_bytes: int = 8
    num_partitions: int = 8
    cache_ways: int = 4
    # Four 8-byte entries per line = a 32-byte BRAM word, for both sides;
    # keeping the vertex side at the same line width as the edge side (and
    # as the uniform baseline's shared cache) makes Fig. 12 apples-to-apples.
    vertex_line_entries: int = 4
    edge_line_entries: int = 4
    tau: float | None = None  # None -> paper rule MIN(50%, |Mem|/2(|V|+|E|))
    lam: float = 1.0  # Equation 2 balance factor
    low_policy: str = "locality"  # 'locality' | 'lru' | 'uniform' (Fig. 12)
    probe_mode: str = "binary"  # 'binary' | 'scan' connectivity checks

    # -- timing ------------------------------------------------------------
    clock_mhz: float = 200.0
    spm_latency: int = 1
    cache_hit_latency: int = 2
    dram_latency: int = 100
    dram_channels: int = 4
    dram_cycles_per_transfer: int = 2
    issue_cycles: int = 1  # scheduler issues one embedding step per cycle
    check_cycles: int = 1  # Filter-stage work per candidate
    process_cycles: int = 2  # Process-stage work per accepted embedding
    prefetch_interval: int = 1  # initial-embedding streaming rate (cycles)

    def __post_init__(self) -> None:
        if self.num_pus < 1 or self.slots_per_pu < 1:
            raise ValueError("num_pus and slots_per_pu must be >= 1")
        if self.ancestor_depth < 2:
            raise ValueError("ancestor_depth must be >= 2")
        if self.onchip_entries < 16:
            raise ValueError("onchip_entries must be >= 16")
        if self.num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if (
            self.cache_ways < 1
            or self.vertex_line_entries < 1
            or self.edge_line_entries < 1
        ):
            raise ValueError("cache_ways and line entries must be >= 1")
        if self.tau is not None and not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.dram_latency < 0 or self.dram_channels < 1:
            raise ValueError("dram_latency must be >= 0 and dram_channels >= 1")
        if self.dram_cycles_per_transfer < 1:
            raise ValueError("dram_cycles_per_transfer must be >= 1")
        if self.steal_victim_select not in ("stealing_buffer", "random"):
            raise ValueError(
                "steal_victim_select must be 'stealing_buffer' or 'random'"
            )
        if self.arbitrator not in ("round_robin", "degree_balanced"):
            raise ValueError(
                "arbitrator must be 'round_robin' or 'degree_balanced'"
            )
        if self.low_policy not in ("locality", "lru", "uniform"):
            raise ValueError("low_policy must be locality, lru, or uniform")
        if self.probe_mode not in ("binary", "scan"):
            raise ValueError("probe_mode must be 'binary' or 'scan'")
        if self.clock_mhz <= 0:
            raise ValueError("clock_mhz must be positive")

    @property
    def max_inflight_embeddings(self) -> int:
        """Simultaneously processed embeddings (8 × 16 = 128 in the paper)."""
        return self.num_pus * self.slots_per_pu

    @property
    def onchip_bytes(self) -> int:
        """On-chip graph-data footprint in bytes."""
        return self.onchip_entries * self.entry_bytes

    def with_overrides(self, **kwargs: Any) -> "GramerConfig":
        """Copy with fields replaced (sweep helper)."""
        return replace(self, **kwargs)
