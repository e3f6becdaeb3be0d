"""Vertex-centric graph processing engine.

The paper's motivation (§II-B, Fig. 2) contrasts graph *mining* against
graph *processing* — the BFS/CC/PageRank class served by prior accelerators
[11, 17, 31, 44, 46], programmed in the vertex-centric model of Pregel [29]:
each active vertex reads its neighbours' values, computes, and writes its
own.  Random accesses land (almost) only on the *vertex value* array; edges
are streamed sequentially per active vertex.

This module implements that model so the repository can quantify the
contrast on identical graphs with identical instrumentation: the engine
charges the same :class:`~repro.mining.engine.MemoryModel` protocol as the
mining engine (code ``v`` = one access to vertex ``v``'s value, code
``n + i`` = one read of adjacency slot ``i``), so the same trace
classifiers and CPU timing model apply to both workload classes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

from repro.mining.engine import MemoryModel, NullMemory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.csr import CSRGraph

__all__ = ["VertexProgram", "run_vertex_program", "IterationLimitError"]


class IterationLimitError(RuntimeError):
    """A program failed to converge within ``max_iterations``."""


class VertexProgram(Protocol):
    """One vertex-centric application (Pregel-style).

    The engine drives::

        values = program.initial_values(graph)
        per superstep, for each active vertex u:
            for each neighbour v of u (streamed):
                accumulate program.gather(values[u], values[v], u, v)
            new = program.apply(u, values[u], accumulated)
            if new != values[u]: activate u's neighbours next superstep

    ``None`` from :meth:`gather`'s accumulation start means "no messages".
    """

    name: str

    def initial_values(self, graph: "CSRGraph") -> list:
        """Per-vertex initial values (also defines the active frontier)."""

    def initial_frontier(self, graph: "CSRGraph") -> list[int]:
        """Vertices active in the first superstep."""

    def gather(self, accumulator, neighbor_value, u: int, v: int):
        """Fold one neighbour's value into the accumulator."""

    def apply(self, vertex: int, old_value, accumulator):
        """New value for ``vertex`` (return ``old_value`` for no change)."""

    def converged(self, old_value, new_value) -> bool:
        """Whether the update is insignificant (vertex deactivates)."""


def run_vertex_program(
    graph: "CSRGraph",
    program: VertexProgram,
    mem: MemoryModel | None = None,
    max_iterations: int = 10_000,
) -> tuple[list, int]:
    """Run ``program`` to convergence; returns (values, supersteps).

    Memory charging follows Fig. 2(a): processing an active vertex costs a
    random access to its own value, a sequential streaming of its adjacency
    slice, and a random access to each neighbour's value.
    """
    mem = mem if mem is not None else NullMemory()
    values = program.initial_values(graph)
    if len(values) != graph.num_vertices:
        raise ValueError("initial_values must supply one value per vertex")
    frontier = sorted(set(program.initial_frontier(graph)))
    offsets = graph.offsets
    neighbors = graph.neighbors
    access = mem.access
    n = graph.num_vertices

    supersteps = 0
    while frontier:
        supersteps += 1
        if supersteps > max_iterations:
            raise IterationLimitError(
                f"{program.name} did not converge within {max_iterations} "
                "supersteps"
            )
        next_frontier: set[int] = set()
        updates: list[tuple[int, object]] = []
        for u in frontier:
            # Set per active vertex, as the mining drivers set it per frame,
            # so a buffering model can bound its pending stream there.
            mem.depth = supersteps
            access(u)  # random access on the active vertex (Fig. 2a)
            accumulator = None
            lo, hi = int(offsets[u]), int(offsets[u + 1])
            for index in range(lo, hi):
                access(n + index)  # sequential edge streaming
                v = int(neighbors[index])
                access(v)  # random access on the neighbour's value
                accumulator = program.gather(accumulator, values[v], u, v)
            new_value = program.apply(u, values[u], accumulator)
            if not program.converged(values[u], new_value):
                updates.append((u, new_value))
                for index in range(lo, hi):
                    next_frontier.add(int(neighbors[index]))
        for u, new_value in updates:
            values[u] = new_value
        frontier = sorted(next_frontier)
    return values, supersteps
