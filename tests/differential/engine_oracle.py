"""Step-wise oracle for the extend-check kernel.

The engine's DFS/BFS drivers in their plain step-wise form: every
candidate goes through :func:`advance_frame` and :func:`check_candidate`,
which index the numpy CSR arrays per access and binary-search (or scan)
each member's slice in :func:`_search_adjacency`.
:mod:`repro.mining.engine` must agree with them on every mining result,
every ``candidates_checked`` count, every frontier-observer call and every
``(depth, kind, id, src)`` memory access.  Its ``slot_step`` must step
every frame, whole or split by work stealing, like one
:func:`advance_frame` + :func:`check_candidate` pair.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.mining.canonical import id_checks_pass
from repro.mining.engine import (
    Frame,
    FrontierOverflowError,
    MemoryModel,
    NullMemory,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.csr import CSRGraph
    from repro.mining.apps.base import Application

__all__ = ["advance_frame", "check_candidate", "run_dfs", "run_bfs"]


def advance_frame(graph: "CSRGraph", frame: Frame, mem: MemoryModel) -> int | None:
    """Produce the next raw candidate of ``frame`` (or ``None`` if done).

    Advances the member/cursor state, charging the member vertex access on
    activation and one edge access per adjacency slot read.
    """
    offsets = graph.offsets
    neighbors = graph.neighbors
    while frame.member_idx < frame.member_limit:
        if frame.member_base < 0:
            member = frame.vertices[frame.member_idx]
            mem.vertex(member)
            frame.member_base = int(offsets[member])
            frame.member_degree = int(offsets[member + 1]) - frame.member_base
        bound = frame.member_degree
        if frame.cursor_limit is not None and frame.cursor_limit < bound:
            bound = frame.cursor_limit
        if frame.edge_cursor < bound:
            index = frame.member_base + frame.edge_cursor
            frame.edge_cursor += 1
            mem.edge(index, frame.vertices[frame.member_idx])
            return int(neighbors[index])
        frame.member_idx += 1
        frame.edge_cursor = 0
        frame.member_base = -1
        frame.cursor_limit = None
    return None


def _search_adjacency(
    graph: "CSRGraph", u: int, target: int, mem: MemoryModel,
    probe: str = "binary",
) -> bool:
    """Membership test for ``target`` in ``u``'s adjacency.

    ``probe`` selects the memory-access shape of a connectivity check:

    * ``"binary"`` — binary search over the sorted slice: ~log2(deg) random
      probes (a software implementation's choice).
    * ``"scan"`` — stream the slice until the target is found or passed:
      the paper's §II-B description ("access all edges between its internal
      vertices and every newly-extended vertex") and what comparator
      hardware without a search datapath does.  Sequential, but re-streams
      hub lists constantly — the traffic the high-priority memory pins.

    Both return identical results; they differ only in the charged trace.
    """
    neighbors = graph.neighbors
    lo = int(graph.offsets[u])
    hi = int(graph.offsets[u + 1])
    if probe == "scan":
        for index in range(lo, hi):
            mem.edge(index, u)
            value = int(neighbors[index])
            if value == target:
                return True
            if value > target:  # sorted slice: target cannot appear later
                return False
        return False
    while lo < hi:
        mid = (lo + hi) // 2
        mem.edge(mid, u)
        value = int(neighbors[mid])
        if value == target:
            return True
        if value < target:
            lo = mid + 1
        else:
            hi = mid
    return False


def check_candidate(
    graph: "CSRGraph",
    vertices: tuple[int, ...],
    member_idx: int,
    candidate: int,
    clique_only: bool,
    mem: MemoryModel,
    probe: str = "binary",
) -> tuple[bool, int]:
    """Run the full extend-check on one candidate.

    Returns ``(accepted, column)`` where ``column`` is the adjacency bitmask
    of ``candidate`` over the embedding members.  Rejections happen for
    (in cost order): ID-canonicality failure (free — the IDs are already in
    the pipeline registers), duplicate proposal (``candidate`` adjacent to
    an earlier member, detected by the connectivity checks), or, when
    ``clique_only``, a missing edge to any member.

    Each connectivity check reads the *member's* CSR record and
    binary-searches the member's adjacency slice — the Fig. 2(b) access
    pattern (see the module docstring).
    """
    if not id_checks_pass(vertices, member_idx, candidate):
        return False, 0
    column = 1 << member_idx
    for i, member in enumerate(vertices):
        if i == member_idx:
            continue
        # Random vertex access: the member's offsets locate its slice.
        mem.vertex(member)
        adjacent = _search_adjacency(graph, member, candidate, mem, probe)
        if adjacent:
            if i < member_idx:
                # First-neighbour violation: this set is generated from
                # member ``i`` instead; drop the duplicate.
                return False, 0
            column |= 1 << i
        elif clique_only:
            return False, 0
    return True, column


def run_dfs(
    graph: "CSRGraph",
    app: "Application",
    mem: MemoryModel | None = None,
    roots: Iterable[int] | None = None,
) -> "Application":
    """Depth-first enumeration (the Fractal / GRAMER execution model §V-A).

    Every initial embedding (vertex) is recursively extended to the
    application's maximum size before the next root starts; intermediate
    embeddings live only on the stack, never in off-chip storage.
    """
    mem = mem if mem is not None else NullMemory()
    app.prepare(graph)
    root_iter = roots if roots is not None else range(graph.num_vertices)
    clique_only = app.clique_only
    for root in root_iter:
        if not app.root_filter(graph, root):
            continue
        stack = [Frame((int(root),), (0,))]
        while stack:
            frame = stack[-1]
            mem.depth = frame.size
            candidate = advance_frame(graph, frame, mem)
            if candidate is None:
                stack.pop()
                continue
            app.candidates_checked += 1
            accepted, column = check_candidate(
                graph, frame.vertices, frame.member_idx, candidate,
                clique_only, mem,
            )
            if not accepted:
                continue
            vertices = frame.vertices + (candidate,)
            columns = frame.columns + (column,)
            if not app.filter(graph, vertices, columns):
                continue
            app.process(graph, vertices, columns)
            if len(vertices) < app.max_vertices and app.aggregate_filter(
                graph, vertices, columns
            ):
                stack.append(Frame(vertices, columns))
    app.finalize(graph)
    return app


def run_bfs(
    graph: "CSRGraph",
    app: "Application",
    mem: MemoryModel | None = None,
    max_frontier: int = 10_000_000,
    frontier_observer=None,
) -> "Application":
    """Level-synchronous enumeration (the Arabesque / RStream model §V-A).

    Materialises every intermediate frontier.  ``frontier_observer(size,
    count, candidates)`` is invoked per completed level — ``count`` accepted
    embeddings of that size, ``candidates`` raw extension candidates the
    level generated — so the RStream disk model can charge both the
    intermediate-embedding traffic and the join-intermediate tuples its
    relational plan materialises.
    """
    mem = mem if mem is not None else NullMemory()
    app.prepare(graph)
    clique_only = app.clique_only
    frontier: list[tuple[tuple[int, ...], tuple[int, ...]]] = [
        ((v,), (0,))
        for v in range(graph.num_vertices)
        if app.root_filter(graph, v)
    ]
    size = 1
    while frontier and size < app.max_vertices:
        candidates_before = app.candidates_checked
        next_frontier: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        for vertices, columns in frontier:
            if not app.aggregate_filter(graph, vertices, columns):
                continue
            frame = Frame(vertices, columns)
            mem.depth = frame.size
            while True:
                candidate = advance_frame(graph, frame, mem)
                if candidate is None:
                    break
                app.candidates_checked += 1
                accepted, column = check_candidate(
                    graph, vertices, frame.member_idx, candidate,
                    clique_only, mem,
                )
                if not accepted:
                    continue
                new_vertices = vertices + (candidate,)
                new_columns = columns + (column,)
                if not app.filter(graph, new_vertices, new_columns):
                    continue
                app.process(graph, new_vertices, new_columns)
                next_frontier.append((new_vertices, new_columns))
                if len(next_frontier) > max_frontier:
                    raise FrontierOverflowError(
                        f"frontier at size {size + 1} exceeded "
                        f"{max_frontier} embeddings"
                    )
        if frontier_observer is not None:
            frontier_observer(
                size + 1,
                len(next_frontier),
                app.candidates_checked - candidates_before,
            )
        frontier = next_frontier
        size += 1
    app.finalize(graph)
    return app
