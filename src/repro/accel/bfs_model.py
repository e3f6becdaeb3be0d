"""BFS-execution-mode cost model (paper §V-A's rejected design).

GRAMER adopts DFS because the BFS/level-synchronous alternative "will waste
significant memory bandwidth" writing intermediate embeddings off-chip and
"requires an off-chip memory capacity far beyond what an accelerator can
afford".  This model quantifies that argument for a finished DFS simulation:
it charges, on top of the run's compute/memory cycles, the off-chip traffic
a BFS-mode accelerator would add — every intermediate embedding written
once and read back once through the DRAM channels — and checks the peak
level against the off-chip capacity.

The estimate is deliberately *favourable* to BFS mode (perfect bandwidth
utilisation, zero scheduling overhead), so the DFS advantage it reports is
a lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .config import GramerConfig

__all__ = ["BFSModeEstimate", "estimate_bfs_mode"]

_BYTES_PER_EMBEDDING_VERTEX = 8  # vertex ID + compacted bookkeeping

# Four 16 GB DDR4 channels on the U250 (§VI-A).
_DEFAULT_OFFCHIP_CAPACITY_BYTES = 4 * 16 * 2**30


@dataclass(frozen=True)
class BFSModeEstimate:
    """BFS-mode projection of a DFS simulation."""

    dfs_cycles: int
    intermediate_bytes: int
    transfer_cycles: int
    peak_level_bytes: int
    offchip_capacity_bytes: int

    @property
    def bfs_cycles(self) -> int:
        """Projected BFS-mode cycles (DFS work + intermediate traffic)."""
        return self.dfs_cycles + self.transfer_cycles

    @property
    def slowdown(self) -> float:
        """BFS-mode cycles over DFS cycles (≥ 1)."""
        return self.bfs_cycles / self.dfs_cycles if self.dfs_cycles else 1.0

    @property
    def fits_offchip(self) -> bool:
        """Whether the largest materialised level fits off-chip at all."""
        return self.peak_level_bytes <= self.offchip_capacity_bytes


def estimate_bfs_mode(
    cycles: int,
    embeddings_by_size: Mapping[int, int],
    max_vertices: int,
    config: GramerConfig,
    offchip_capacity_bytes: int = _DEFAULT_OFFCHIP_CAPACITY_BYTES,
) -> BFSModeEstimate:
    """Project a DFS run's ``cycles`` and counts onto the BFS execution model.

    Intermediate embeddings are every accepted embedding below
    ``max_vertices``, the application's maximum size (those are exactly
    what BFS mode materialises between levels); each is ``size × 8``
    bytes, written once and read once.  The DRAM channels of ``config``
    move one 8-byte beat per ``dram_cycles_per_transfer`` cycles each.
    """
    intermediate_bytes = 0
    peak_level_bytes = 0
    for size, count in embeddings_by_size.items():
        if size >= max_vertices:
            continue
        level_bytes = count * size * _BYTES_PER_EMBEDDING_VERTEX
        intermediate_bytes += 2 * level_bytes  # write + read back
        peak_level_bytes = max(peak_level_bytes, level_bytes)

    beats = intermediate_bytes // _BYTES_PER_EMBEDDING_VERTEX
    channel_beats_per_cycle = (
        config.dram_channels / config.dram_cycles_per_transfer
    )
    transfer_cycles = int(beats / channel_beats_per_cycle)

    return BFSModeEstimate(
        dfs_cycles=cycles,
        intermediate_bytes=intermediate_bytes,
        transfer_cycles=transfer_cycles,
        peak_level_bytes=peak_level_bytes,
        offchip_capacity_bytes=offchip_capacity_bytes,
    )
