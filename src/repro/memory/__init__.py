"""Memory substrate: LAMH sizing and counts, the disk model."""

from .disk import DiskModel, OutOfDiskError
from .hierarchy import (
    LAMHGeometry,
    LAMHReport,
    default_tau,
    edge_rank_positions,
)

__all__ = [
    "DiskModel",
    "OutOfDiskError",
    "LAMHGeometry",
    "LAMHReport",
    "default_tau",
    "edge_rank_positions",
]
