"""Stride-based access classification.

§II-B's argument is about *where the random accesses fall*: graph
processing randomises (mostly) the vertex dimension while streaming edges;
graph mining randomises both.  This adapter classifies each access by its
address stride — an edge access is *sequential* when it continues the
previous slot of the same adjacency stream (``index == last+1`` for that
source vertex), a vertex access is sequential when IDs ascend by one
(frontier sweeps) — and counts the four buckets the comparison needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.csr import CSRGraph

__all__ = ["AccessMix", "StrideClassifier"]


@dataclass
class AccessMix:
    """Counts of (dimension × randomness) access classes."""

    sequential_vertex: int = 0
    random_vertex: int = 0
    sequential_edge: int = 0
    random_edge: int = 0

    @property
    def total(self) -> int:
        """All classified accesses."""
        return (
            self.sequential_vertex
            + self.random_vertex
            + self.sequential_edge
            + self.random_edge
        )

    def fractions(self) -> dict[str, float]:
        """Shares of each class (empty mix -> all zeros)."""
        total = self.total
        if total == 0:
            return {
                "sequential_vertex": 0.0,
                "random_vertex": 0.0,
                "sequential_edge": 0.0,
                "random_edge": 0.0,
            }
        return {
            "sequential_vertex": self.sequential_vertex / total,
            "random_vertex": self.random_vertex / total,
            "sequential_edge": self.sequential_edge / total,
            "random_edge": self.random_edge / total,
        }

    @property
    def random_vertex_share(self) -> float:
        """Random vertex accesses / all vertex accesses."""
        denom = self.sequential_vertex + self.random_vertex
        return self.random_vertex / denom if denom else 0.0

    @property
    def random_edge_share(self) -> float:
        """Random edge accesses / all edge accesses."""
        denom = self.sequential_edge + self.random_edge
        return self.random_edge / denom if denom else 0.0


class StrideClassifier:
    """MemoryModel adapter that buckets ``graph``'s accesses by stride.

    An edge access's stream is its slot's CSR owner, the vertex whose
    adjacency slice holds the slot.
    """

    def __init__(self, graph: "CSRGraph") -> None:
        self.depth = 0
        self.mix = AccessMix()
        self._num_vertices = graph.num_vertices
        self._owner: list[int] = np.repeat(
            np.arange(graph.num_vertices), graph.degrees()
        ).tolist()
        self._last_vertex: int | None = None
        self._last_edge_by_src: dict[int, int] = {}

    def access(self, code: int) -> None:
        n = self._num_vertices
        if code < n:
            if self._last_vertex is not None and code == self._last_vertex + 1:
                self.mix.sequential_vertex += 1
            else:
                self.mix.random_vertex += 1
            self._last_vertex = code
            return
        index = code - n
        src = self._owner[index]
        last = self._last_edge_by_src.get(src)
        if last is not None and index == last + 1:
            self.mix.sequential_edge += 1
        else:
            self.mix.random_edge += 1
        self._last_edge_by_src[src] = index
