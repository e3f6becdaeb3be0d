"""Memory-trace capture.

These are :class:`~repro.mining.engine.MemoryModel` implementations that
record instead of cost.  The paper's motivation studies ("we trace all
memory requests in each iteration, and then rank each vertex and edge
according to the number of their memory requests", footnote 1) are built on
:class:`IterationTrace`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

__all__ = ["AccessCounter", "IterationTrace"]


class AccessCounter:
    """Flat access totals (no per-iteration split).

    ``num_vertices`` decodes the engine's access codes: codes below it are
    vertex records, the rest are edge slots ``code - num_vertices``.
    """

    __slots__ = ("depth", "num_vertices", "vertex_counts", "edge_counts")

    def __init__(self, num_vertices: int) -> None:
        self.depth = 0
        self.num_vertices = num_vertices
        self.vertex_counts: Counter[int] = Counter()
        self.edge_counts: Counter[int] = Counter()

    def access(self, code: int) -> None:
        n = self.num_vertices
        if code < n:
            self.vertex_counts[code] += 1
        else:
            self.edge_counts[code - n] += 1

    @property
    def total_vertex_accesses(self) -> int:
        """Total vertex accesses recorded."""
        return sum(self.vertex_counts.values())

    @property
    def total_edge_accesses(self) -> int:
        """Total edge accesses recorded."""
        return sum(self.edge_counts.values())


@dataclass
class _IterationBucket:
    vertex_counts: Counter[int] = field(default_factory=Counter)
    edge_counts: Counter[int] = field(default_factory=Counter)


class IterationTrace:
    """Per-iteration access counters keyed by embedding size.

    ``depth`` (set by the engine) is the size of the embedding being
    extended, which equals the paper's iteration number: iteration ``i``
    extends ``i``-vertex embeddings into ``(i+1)``-vertex ones.  Access
    codes decode as in :class:`AccessCounter`.
    """

    def __init__(self, num_vertices: int) -> None:
        self.depth = 0
        self.num_vertices = num_vertices
        self.buckets: dict[int, _IterationBucket] = {}

    def _bucket(self) -> _IterationBucket:
        bucket = self.buckets.get(self.depth)
        if bucket is None:
            bucket = _IterationBucket()
            self.buckets[self.depth] = bucket
        return bucket

    def access(self, code: int) -> None:
        n = self.num_vertices
        if code < n:
            self._bucket().vertex_counts[code] += 1
        else:
            self._bucket().edge_counts[code - n] += 1

    @property
    def iterations(self) -> list[int]:
        """Iteration numbers observed, ascending."""
        return sorted(self.buckets)

    def vertex_counts(self, iteration: int) -> Counter[int]:
        """Vertex access counts for one iteration."""
        return self.buckets[iteration].vertex_counts

    def edge_counts(self, iteration: int) -> Counter[int]:
        """Edge-slot access counts for one iteration."""
        return self.buckets[iteration].edge_counts
