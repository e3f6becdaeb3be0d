"""Application base class: the three primitives of Table I.

An :class:`Application` supplies ``Aggregate_filter``, ``Filter`` and
``Process`` (plus bookkeeping) to the engine, exactly mirroring the
embedding-centric model of Algorithm 1.  Results accumulate in per-size
pattern counters; :meth:`result` snapshots them into an immutable
:class:`MiningResult`.

``Process`` is deferred.  Table I's ``Process`` emits one ``(P(e), value)``
pair per embedding, to be reduced by pattern; that reduction is
associative, and the embeddings of a run collapse into a few hundred
distinct raw *shapes* — the adjacency-column tuple the extend-check built
(plus the member labels, for labelled apps).  So :meth:`Application.process`
only counts shapes, and the per-size counters are folded from them, one
canonicalization per distinct shape, whenever they are read.  The fold
walks the shapes in first-seen order, so every counter key is inserted by
the first embedding that had it, exactly as per-embedding counting would.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.mining.patterns import PatternCode, code_from_columns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.csr import CSRGraph

__all__ = ["Application", "MiningResult"]


@dataclass(frozen=True)
class MiningResult:
    """Snapshot of a finished mining run."""

    app_name: str
    max_vertices: int
    embeddings_by_size: dict[int, int]
    patterns_by_size: dict[int, dict[PatternCode, int]]
    summary: dict[str, object] = field(default_factory=dict)

    @property
    def total_embeddings(self) -> int:
        """Total accepted embeddings across all sizes."""
        return sum(self.embeddings_by_size.values())

    def pattern_count(self, code: PatternCode) -> int:
        """Occurrences of one pattern (0 when absent)."""
        return self.patterns_by_size.get(code.size, {}).get(code, 0)


class Application:
    """Base graph-mining application (subclass per algorithm).

    Subclasses override the Table I primitives.  The engine calls:

    * :meth:`root_filter` once per initial (1-vertex) embedding,
    * :meth:`filter` on every canonical extension (``Filter(e')``),
    * :meth:`process` on every filter-passing embedding (``Process(e')``),
    * :meth:`aggregate_filter` before an embedding is extended further
      (``Aggregate_filter(e)``).

    ``clique_only`` lets the extend-check reject candidates missing an edge
    to any member early — the hardware equivalent of CF's IsClique filter
    running inside the Extender.
    """

    name = "base"
    clique_only = False
    needs_labels = False

    def __init__(self, max_vertices: int) -> None:
        if max_vertices < 2:
            raise ValueError("max_vertices must be >= 2")
        self.max_vertices = max_vertices
        self.reset()

    # -- lifecycle -------------------------------------------------------------

    def reset(self) -> None:
        """Clear accumulated state so the instance can run again."""
        self._embeddings_by_size: Counter[int] = Counter()
        self._patterns_by_size: dict[int, Counter[PatternCode]] = {}
        # Raw shape -> embeddings not yet folded into the counters above,
        # in first-seen order.  A shape is ``columns``, or ``(columns,
        # labels)`` when the app needs labels.
        self._pending: dict[tuple[Any, ...], int] = {}
        # The per-run label list and the graph it was resolved from.
        self._labels_graph: "CSRGraph | None" = None
        self._labels: list[int] = []
        self.candidates_checked = 0  # maintained by the engines

    @property
    def embeddings_by_size(self) -> Counter[int]:
        """Accepted embeddings per size (folds pending shapes first)."""
        self._fold()
        return self._embeddings_by_size

    @property
    def patterns_by_size(self) -> dict[int, Counter[PatternCode]]:
        """Per-size pattern counters (folds pending shapes first).

        Only sizes where :meth:`counts_patterns` holds have a counter.
        """
        self._fold()
        return self._patterns_by_size

    def prepare(self, graph: "CSRGraph") -> None:
        """Pre-run hook (e.g. FSM precomputes level-2 support counts)."""

    def finalize(self, graph: "CSRGraph") -> None:
        """Post-run hook."""

    # -- Table I primitives ------------------------------------------------------

    def root_filter(self, graph: "CSRGraph", vertex: int) -> bool:
        """Whether the 1-vertex embedding ``{vertex}`` seeds exploration."""
        return True

    def aggregate_filter(
        self,
        graph: "CSRGraph",
        vertices: tuple[int, ...],
        columns: tuple[int, ...],
    ) -> bool:
        """``Aggregate_filter(e)`` — may this embedding be extended?"""
        return True

    def filter(
        self,
        graph: "CSRGraph",
        vertices: tuple[int, ...],
        columns: tuple[int, ...],
    ) -> bool:
        """``Filter(e')`` — is this embedding wanted?"""
        return True

    def process(
        self,
        graph: "CSRGraph",
        vertices: tuple[int, ...],
        columns: tuple[int, ...],
    ) -> None:
        """``Process(e')`` — default: count the embedding and its pattern.

        One dict increment keyed by the embedding's raw shape; the shape
        is canonicalized to ``P(e)`` once, when the counters are next read
        (see the module docstring).
        """
        if self.needs_labels:
            labels = self._run_labels(graph)
            key: tuple[Any, ...] = (
                columns, tuple([labels[v] for v in vertices])
            )
        else:
            key = columns
        pending = self._pending
        pending[key] = pending.get(key, 0) + 1

    # -- helpers -----------------------------------------------------------------

    def counts_patterns(self, size: int) -> bool:
        """Whether per-pattern counters are kept at this embedding size."""
        return size >= 3

    def pattern_of(
        self,
        graph: "CSRGraph",
        vertices: tuple[int, ...],
        columns: tuple[int, ...],
    ) -> PatternCode:
        """Canonical pattern ``P(e)`` of an embedding."""
        if self.needs_labels:
            labels = self._run_labels(graph)
            return code_from_columns(columns, [labels[v] for v in vertices])
        return code_from_columns(columns)

    def _run_labels(self, graph: "CSRGraph") -> list[int]:
        """``graph``'s vertex labels as a list, resolved once per run.

        Held on the application, never memoized on the graph: the graph
        store keeps opened graphs alive, and would pin the list with them.
        """
        if graph is not self._labels_graph:
            self._labels = graph.labels.tolist()
            self._labels_graph = graph
        return self._labels

    def _fold(self) -> None:
        """Fold the pending shapes into the per-size counters."""
        pending = self._pending
        if not pending:
            return
        embeddings = self._embeddings_by_size
        patterns = self._patterns_by_size
        labelled = self.needs_labels
        for key, count in pending.items():
            if labelled:
                columns, labels = key
            else:
                columns, labels = key, None
            size = len(columns)
            embeddings[size] += count
            if self.counts_patterns(size):
                by_size = patterns.get(size)
                if by_size is None:
                    by_size = patterns[size] = Counter()
                by_size[code_from_columns(columns, labels)] += count
        pending.clear()

    def summary(self) -> dict[str, object]:
        """Application-specific result summary (override as needed)."""
        return {}

    def result(self) -> MiningResult:
        """Immutable snapshot of the accumulated results."""
        return MiningResult(
            app_name=self.name,
            max_vertices=self.max_vertices,
            embeddings_by_size=dict(self.embeddings_by_size),
            patterns_by_size={
                size: dict(counter)
                for size, counter in self.patterns_by_size.items()
            },
            summary=self.summary(),
        )
