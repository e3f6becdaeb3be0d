"""Compressed sparse row (CSR) graph.

GRAMER stores the input graph in CSR form (paper §VI-A: "All graphs are
considered undirected and stored in the CSR").  The CSR arrays are the
*physical* layout the accelerator addresses, so this module is the ground
truth for every memory-trace and cache model in the repository:

* ``offsets[v] .. offsets[v + 1]`` delimits vertex ``v``'s adjacency slice
  inside ``neighbors``; a *vertex access* in the simulators reads the
  offset/degree entry for ``v``, an *edge access* reads one slot of
  ``neighbors``.
* Adjacency slices are kept sorted so connectivity checks can be performed
  with binary search, matching the extend-check access model of §II-B.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["CSRGraph"]


class CSRGraph:
    """An immutable undirected graph in compressed sparse row form.

    Parameters
    ----------
    num_vertices:
        Number of vertices; vertex IDs are ``0 .. num_vertices - 1``.
    edges:
        Iterable of ``(u, v)`` pairs.  The graph is undirected: each pair is
        stored in both adjacency lists.  Self loops and duplicate edges are
        dropped (real-world mining systems de-duplicate on load).
    labels:
        Optional per-vertex integer labels (used by FSM).  Defaults to all
        zeros, i.e. an unlabeled graph.
    """

    __slots__ = (
        "offsets",
        "neighbors",
        "labels",
        "_num_edges",
        "_content_digest",
    )

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[tuple[int, int]],
        labels: Sequence[int] | None = None,
    ) -> None:
        pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        self._init_from_pairs(num_vertices, pairs, labels)

    def _init_from_pairs(
        self,
        num_vertices: int,
        pairs: np.ndarray,
        labels: Sequence[int] | None,
    ) -> None:
        if num_vertices < 0:
            raise ValueError(f"num_vertices must be >= 0, got {num_vertices}")
        if len(pairs):
            if pairs.min() < 0 or pairs.max() >= num_vertices:
                bad = pairs[
                    (pairs.min(axis=1) < 0) | (pairs.max(axis=1) >= num_vertices)
                ][0]
                raise ValueError(
                    f"edge ({bad[0]}, {bad[1]}) out of range for "
                    f"{num_vertices} vertices"
                )
            pairs = pairs[pairs[:, 0] != pairs[:, 1]]  # drop self loops
        if len(pairs):
            lo = pairs.min(axis=1)
            hi = pairs.max(axis=1)
            # De-duplicate on the canonical (min, max) encoding.
            encoded = np.unique(lo * num_vertices + hi)
            lo = encoded // num_vertices
            hi = encoded % num_vertices
            src = np.concatenate([lo, hi])
            dst = np.concatenate([hi, lo])
            degree = np.bincount(src, minlength=num_vertices)
            self.offsets = np.zeros(num_vertices + 1, dtype=np.int64)
            np.cumsum(degree, out=self.offsets[1:])
            # Sort by (source, neighbor): slices come out sorted for
            # binary-search membership checks.
            order = np.lexsort((dst, src))
            self.neighbors = dst[order]
            self._num_edges = len(encoded)
        else:
            self.offsets = np.zeros(num_vertices + 1, dtype=np.int64)
            self.neighbors = np.zeros(0, dtype=np.int64)
            self._num_edges = 0

        if labels is None:
            self.labels = np.zeros(num_vertices, dtype=np.int64)
        else:
            if len(labels) != num_vertices:
                raise ValueError(
                    f"labels has length {len(labels)}, expected {num_vertices}"
                )
            self.labels = np.asarray(labels, dtype=np.int64).copy()
        self._content_digest: str | None = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_edge_array(
        cls,
        num_vertices: int,
        pairs: np.ndarray,
        labels: Sequence[int] | None = None,
    ) -> "CSRGraph":
        """Build from an ``(E, 2)`` int64 edge array, fully vectorised.

        Same semantics as the main constructor (self loops dropped,
        duplicates de-duplicated on the canonical encoding, slices sorted)
        without materialising a Python list of tuples — the path the
        streaming edge-list parser and the bulk loaders use.
        """
        graph = cls.__new__(cls)
        pairs = np.ascontiguousarray(pairs, dtype=np.int64).reshape(-1, 2)
        graph._init_from_pairs(num_vertices, pairs, labels)
        return graph

    @classmethod
    def from_arrays(
        cls,
        offsets: np.ndarray,
        neighbors: np.ndarray,
        labels: Sequence[int] | None = None,
    ) -> "CSRGraph":
        """Build directly from validated CSR arrays — zero copy.

        The arrays must describe a symmetric, de-duplicated, per-slice-sorted
        undirected graph; instead of re-running the dedup/sort build path
        this validates invariants (monotone offsets, neighbor ID range) and
        adopts the arrays as-is — symmetry is trusted.  Memory-mapped inputs
        (the graph store's artifacts) stay memory-mapped: no array is copied,
        so N readers of one artifact share OS pages.  Use the main
        constructor when in doubt.
        """
        graph = cls.__new__(cls)
        offsets = np.asarray(offsets, dtype=np.int64)
        neighbors = np.asarray(neighbors, dtype=np.int64)
        if offsets.ndim != 1 or len(offsets) == 0:
            raise ValueError("offsets must be a non-empty 1-D array")
        if np.any(np.diff(offsets) < 0) or offsets[0] != 0:
            raise ValueError("offsets must start at 0 and be non-decreasing")
        if offsets[-1] != len(neighbors):
            raise ValueError("offsets[-1] must equal len(neighbors)")
        n = len(offsets) - 1
        if len(neighbors) and (neighbors.min() < 0 or neighbors.max() >= n):
            raise ValueError("neighbor IDs out of range")
        graph.offsets = offsets
        graph.neighbors = neighbors
        graph._num_edges = len(neighbors) // 2
        if labels is None:
            graph.labels = np.zeros(n, dtype=np.int64)
        else:
            if len(labels) != n:
                raise ValueError(f"labels has length {len(labels)}, expected {n}")
            graph.labels = np.asarray(labels, dtype=np.int64)
        graph._content_digest = None
        return graph

    # -- basic queries ---------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return len(self.offsets) - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|`` (each counted once)."""
        return self._num_edges

    def content_digest(self) -> str:
        """SHA-256 over the raw CSR arrays — the graph's content address.

        Computed at most once per graph object: the digest is memoized on
        first use, and graphs opened from the :class:`~repro.graph.store.
        GraphStore` arrive with it pre-set from the artifact header, so
        store-backed graphs are addressed without ever re-hashing their
        (potentially huge, memory-mapped) arrays.
        """
        digest = getattr(self, "_content_digest", None)
        if digest is None:
            hasher = hashlib.sha256()
            hasher.update(np.ascontiguousarray(self.offsets).tobytes())
            hasher.update(np.ascontiguousarray(self.neighbors).tobytes())
            hasher.update(np.ascontiguousarray(self.labels).tobytes())
            digest = hasher.hexdigest()
            self._content_digest = digest
        return digest

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        return int(self.offsets[v + 1] - self.offsets[v])

    def degrees(self) -> np.ndarray:
        """Degrees of all vertices as an array."""
        return np.diff(self.offsets)

    def neighbors_of(self, v: int) -> np.ndarray:
        """Sorted adjacency slice of ``v`` (a view, do not mutate)."""
        return self.neighbors[self.offsets[v] : self.offsets[v + 1]]

    def label(self, v: int) -> int:
        """Label of vertex ``v`` (0 for unlabeled graphs)."""
        return int(self.labels[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``(u, v)`` exists (binary search)."""
        lo, hi = int(self.offsets[u]), int(self.offsets[u + 1])
        i = lo + bisect_left(self.neighbors[lo:hi], v)
        return bool(i < hi and self.neighbors[i] == v)

    def edge_index(self, u: int, v: int) -> int | None:
        """Index into ``neighbors`` where ``v`` sits in ``u``'s slice.

        This is the *physical address* of the directed edge record
        ``u -> v``; the memory models key edge accesses on it.  Returns
        ``None`` when the edge does not exist.
        """
        lo, hi = int(self.offsets[u]), int(self.offsets[u + 1])
        i = lo + bisect_left(self.neighbors[lo:hi], v)
        if i < hi and self.neighbors[i] == v:
            return i
        return None

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate undirected edges once each, as ``(u, v)`` with ``u < v``."""
        for u in range(self.num_vertices):
            for v in self.neighbors_of(u):
                if u < v:
                    yield u, int(v)

    # -- transformations --------------------------------------------------------

    def relabeled(self, permutation: Sequence[int]) -> "CSRGraph":
        """Return a copy with vertex ``v`` renamed to ``permutation[v]``.

        Graph reordering (paper §IV-C) renames vertices so the ID *is* the
        ON1 rank; this produces the renamed CSR the accelerator then loads.
        Fully vectorised — reordering cost is part of the preprocessing
        overhead Fig. 11(b) measures, so it must not carry Python-loop
        overhead the paper's native implementation would not have.
        """
        perm = np.asarray(permutation, dtype=np.int64)
        n = self.num_vertices
        if len(perm) != n or not np.array_equal(
            np.sort(perm), np.arange(n)
        ):
            raise ValueError("permutation must be a bijection on vertex IDs")
        new_labels = np.zeros(n, dtype=np.int64)
        new_labels[perm] = self.labels
        if len(self.neighbors) == 0:
            return CSRGraph.from_arrays(
                np.zeros(n + 1, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                labels=new_labels,
            )
        # New source per slot, new neighbor per slot; then regroup/sort.
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.offsets))
        new_src = perm[src]
        new_dst = perm[self.neighbors]
        order = np.lexsort((new_dst, new_src))
        new_degrees = np.bincount(new_src, minlength=n)
        new_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(new_degrees, out=new_offsets[1:])
        return CSRGraph.from_arrays(
            new_offsets, new_dst[order], labels=new_labels
        )

    def induced_adjacency(self, vertices: Sequence[int]) -> int:
        """Adjacency bitmask of the induced subgraph on ``vertices``.

        Bit ``i * k + j`` (for ``k = len(vertices)``) is set when
        ``vertices[i]`` and ``vertices[j]`` are adjacent.  Used to derive the
        pattern of an embedding.
        """
        k = len(vertices)
        mask = 0
        for i in range(k):
            for j in range(i + 1, k):
                if self.has_edge(vertices[i], vertices[j]):
                    mask |= (1 << (i * k + j)) | (1 << (j * k + i))
        return mask

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CSRGraph(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges})"
        )
