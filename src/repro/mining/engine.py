"""The extend-check mining engine.

This module holds the single extend-check kernel, :func:`_extend_check`:
the ID checks plus the per-member connectivity probes that decide whether
a candidate extends an embedding.  Every vehicle reaches it one of two
ways:

* the DFS and BFS drivers below (the software reference, the CPU
  baselines and the memory-trace collectors of ``repro.locality.trace``)
  stream candidates in tight loops over list views of the CSR arrays and
  call the kernel once per candidate;
* :func:`slot_step` is one GRAMER slot step (§V-B): it advances a
  possibly split :class:`Frame` to its next candidate and runs the kernel
  on it.  The simulator (``repro.accel.sim``) steps its slots through
  it, so slot-level pipelining and work stealing can interleave frames;
  the simulator keeps only the timing.

Sharing one kernel guarantees the invariant the whole evaluation rests on:
all vehicles enumerate the identical embedding set and emit the identical
memory-access stream; they differ only in what a memory access *costs*.

Memory-access model (paper §II-B, Fig. 2b)
------------------------------------------
Extending an embedding walks its members in joining order (the compaction
order of Fig. 10).  Activating a member costs one **vertex access** (its CSR
offset/degree entry) and streaming its adjacency costs one **edge access**
per slot.  Each proposed candidate ``u`` is then connectivity-checked
against every embedding member: per member, one random vertex access (the
member's offsets) plus a binary search for ``u`` inside *the member's*
adjacency slice.  This is Fig. 2(b)'s access pattern — "random access on
embedding vertices" and "random access on embedding edges": the embedding's
members, which are disproportionately high-degree vertices, are the ones
whose records and edges get hammered, which is exactly the extension
locality GRAMER exploits.

The stream is charged as plain ints: each access is one ``access(code)``
call whose code is the CSR word address (``v`` for vertex ``v``'s record,
``n + i`` for ``neighbors[i]``; see :class:`MemoryModel`).  Consumers that
price or record it decode the code; the kernel never builds a tuple.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Protocol

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.csr import CSRGraph
    from .apps.base import Application

__all__ = [
    "MemoryModel",
    "NullMemory",
    "Frame",
    "slot_step",
    "run_dfs",
    "run_bfs",
    "FrontierOverflowError",
]


class MemoryModel(Protocol):
    """What the engine charges accesses to.

    ``access(code)`` charges one access.  The code is the CSR word address
    of the access: ``v`` for vertex ``v``'s offset record and ``n + i``
    for ``neighbors[i]``, ``n`` being the vertex count.  So a code below
    ``n`` is a vertex access, and the slot's owner is the vertex whose
    slice holds ``i``; a model that needs either decodes it.  Drivers
    fetch ``access`` once per run, so a model may expose a C-level
    callable such as a list's ``append``.

    ``depth`` is set by the engine before each operation to the size of the
    embedding being extended; it equals the paper's iteration number, which
    the Fig. 5 locality analysis buckets on.
    """

    depth: int

    def access(self, code: int) -> None:
        """Charge one access to CSR word ``code``."""


class NullMemory:
    """A memory model that costs nothing (pure software enumeration).

    :func:`run_dfs` and :func:`run_bfs` treat it like ``mem=None``: they
    make no memory calls at all, and leave its ``depth`` untouched.
    """

    __slots__ = ("depth",)

    def __init__(self) -> None:
        self.depth = 0

    def access(self, code: int) -> None:
        pass


class Frame:
    """One level of the DFS extension stack.

    Holds the embedding (in canonical joining order), the per-member
    adjacency columns (bit ``j`` of ``columns[i]`` set when members ``i`` and
    ``j < i`` are adjacent), and the extension cursor: which member is being
    extended and how far into its adjacency slice we are.  This is exactly
    the compacted ancestor record of Fig. 10 — (extending vertex, offset) —
    plus the embedding itself, so the accelerator's ancestor-buffer sizing
    is derived from it.

    Work stealing (§V-C) splits a frame's remaining candidate range between
    victim and thief; ``member_limit`` (exclusive last member to extend) and
    ``cursor_limit`` (exclusive cursor bound for the *current* member,
    cleared when the member advances) delimit each side's share.
    """

    __slots__ = (
        "vertices",
        "columns",
        "member_idx",
        "edge_cursor",
        "member_base",
        "member_degree",
        "member_limit",
        "cursor_limit",
    )

    def __init__(
        self, vertices: tuple[int, ...], columns: tuple[int, ...]
    ) -> None:
        self.vertices = vertices
        self.columns = columns
        self.member_idx = 0
        self.edge_cursor = 0
        self.member_base = -1  # CSR offset of current member; -1 = not loaded
        self.member_degree = 0
        self.member_limit = len(vertices)
        self.cursor_limit: int | None = None

    @property
    def size(self) -> int:
        """Number of vertices in the embedding being extended."""
        return len(self.vertices)

    def exhausted(self) -> bool:
        """Whether this frame's share of the adjacency has been scanned."""
        return self.member_idx >= self.member_limit

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Frame(vertices={self.vertices}, member={self.member_idx}, "
            f"cursor={self.edge_cursor})"
        )


def _charged(mem: MemoryModel | None) -> MemoryModel | None:
    """``mem`` when the drivers must call it; ``None`` for a free run."""
    return None if mem is None or type(mem) is NullMemory else mem


def _extend_check(
    offsets: list[int],
    neighbors: list[int],
    n: int,
    vertices: tuple[int, ...],
    member_idx: int,
    candidate: int,
    clique_only: bool,
    access: Callable[[int], None] | None,
    scan: bool,
) -> int:
    """The extend-check kernel: accept or reject one candidate.

    Returns the adjacency column of ``candidate`` over the embedding
    members (bit ``member_idx`` is always set), or 0 when the candidate is
    rejected.  ``offsets``/``neighbors`` are the CSR arrays as Python lists
    over ``n`` vertices; ``access`` is the memory model's charge callable
    (see :class:`MemoryModel` for the codes), or ``None`` for an uncharged
    run.

    Rejections happen for (in cost order): ID-canonicality failure
    (conditions 1, 3 and 4 of :mod:`repro.mining.canonical` — free, the IDs
    are already in the pipeline registers), duplicate proposal
    (``candidate`` adjacent to an earlier member, detected by the
    connectivity checks), or, when ``clique_only``, a missing edge to any
    member.

    Each connectivity check reads the *member's* CSR record (one vertex
    access) and probes the member's sorted adjacency slice for
    ``candidate`` (one edge access per slot read):

    * binary search — ~log2(deg) random probes (a software
      implementation's choice, and the drivers' only mode);
    * ``scan`` — stream the slice until the target is found or passed:
      the paper's §II-B description ("access all edges between its
      internal vertices and every newly-extended vertex") and what
      comparator hardware without a search datapath does.  Sequential,
      but re-streams hub lists constantly — the traffic the high-priority
      memory pins.

    Both probes give identical results; they differ only in the charged
    trace.
    """
    if candidate in vertices or candidate < vertices[0]:
        return 0
    for i in range(member_idx + 1, len(vertices)):
        if candidate < vertices[i]:
            return 0
    column = 1 << member_idx
    for i, member in enumerate(vertices):
        if i == member_idx:
            continue
        # Random vertex access: the member's offsets locate its slice.
        if access is not None:
            access(member)
        lo = offsets[member]
        hi = offsets[member + 1]
        adjacent = False
        if scan:
            for index in range(lo, hi):
                if access is not None:
                    access(n + index)
                value = neighbors[index]
                if value >= candidate:  # sorted: cannot appear later
                    adjacent = value == candidate
                    break
        else:
            while lo < hi:
                mid = (lo + hi) // 2
                if access is not None:
                    access(n + mid)
                value = neighbors[mid]
                if value == candidate:
                    adjacent = True
                    break
                if value < candidate:
                    lo = mid + 1
                else:
                    hi = mid
        if adjacent:
            if i < member_idx:
                # First-neighbour violation: this set is generated from
                # member ``i`` instead; drop the duplicate.
                return 0
            column |= 1 << i
        elif clique_only:
            return 0
    return column


def slot_step(
    offsets: list[int],
    neighbors: list[int],
    frame: Frame,
    clique_only: bool,
    scan: bool,
    access: Callable[[int], None],
) -> tuple[int | None, int]:
    """One GRAMER slot step: advance ``frame`` and extend-check its candidate.

    Returns ``(candidate, column)``: the frame's next raw candidate and its
    :func:`_extend_check` column (0 when rejected), or ``(None, 0)`` once
    the frame's share — bounded by ``member_limit`` and ``cursor_limit``
    when work stealing split it — is exhausted.  Activating a member
    charges its vertex access and every adjacency slot read one edge
    access, then the check charges its probes; ``scan`` selects the probe
    shape.  Each access is one ``access(code)`` call with a
    :class:`MemoryModel` code, so a simulator can pass a list's
    ``append`` and record the step's accesses with no Python frame per
    access.  Only memory accesses are charged: the simulators that step
    frames this way own their compute and timing.
    """
    n = len(offsets) - 1
    vertices = frame.vertices
    m_idx = frame.member_idx
    while m_idx < frame.member_limit:
        base = frame.member_base
        if base < 0:
            member = vertices[m_idx]
            access(member)
            base = offsets[member]
            frame.member_base = base
            frame.member_degree = offsets[member + 1] - base
        bound = frame.member_degree
        cursor_limit = frame.cursor_limit
        if cursor_limit is not None and cursor_limit < bound:
            bound = cursor_limit
        cursor = frame.edge_cursor
        if cursor < bound:
            index = base + cursor
            frame.edge_cursor = cursor + 1
            access(n + index)
            candidate = neighbors[index]
            return candidate, _extend_check(
                offsets, neighbors, n, vertices, m_idx, candidate,
                clique_only, access, scan,
            )
        m_idx += 1
        frame.member_idx = m_idx
        frame.edge_cursor = 0
        frame.member_base = -1
        frame.cursor_limit = None
    return None, 0


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

    Candidate streaming is :func:`slot_step`'s, inlined: a frame records
    its member and cursor only when it yields to a child, and the
    child-first order is the access stream.  ``mem.depth`` is set whenever
    a frame becomes the top of the stack.
    """
    mem = _charged(mem)
    access = mem.access if mem is not None else None
    n = graph.num_vertices
    # Per-run lists, not a memo on the graph: the graph store keeps opened
    # graphs alive, and a memo would pin these lists with them.
    offsets = graph.offsets.tolist()
    neighbors = graph.neighbors.tolist()
    app.prepare(graph)
    root_iter = roots if roots is not None else range(graph.num_vertices)
    clique_only = app.clique_only
    max_vertices = app.max_vertices
    app_filter = app.filter
    process = app.process
    aggregate_filter = app.aggregate_filter
    checked = 0
    try:
        for root in root_iter:
            if not app.root_filter(graph, root):
                continue
            stack = [Frame((int(root),), (0,))]
            while stack:
                frame = stack[-1]
                vertices = frame.vertices
                columns = frame.columns
                num_members = len(vertices)
                if mem is not None:
                    mem.depth = num_members
                m_idx = frame.member_idx
                base = frame.member_base  # >= 0 only when resuming
                while m_idx < num_members:
                    member = vertices[m_idx]
                    if base < 0:
                        if access is not None:
                            access(member)
                        base = offsets[member]
                        start = base
                    else:
                        start = base + frame.edge_cursor
                    for index in range(start, offsets[member + 1]):
                        if access is not None:
                            access(n + index)
                        candidate = neighbors[index]
                        checked += 1
                        column = _extend_check(
                            offsets, neighbors, n, vertices, m_idx, candidate,
                            clique_only, access, False,
                        )
                        if not column:
                            continue
                        new_vertices = vertices + (candidate,)
                        new_columns = columns + (column,)
                        if not app_filter(graph, new_vertices, new_columns):
                            continue
                        process(graph, new_vertices, new_columns)
                        if len(new_vertices) < max_vertices and aggregate_filter(
                            graph, new_vertices, new_columns
                        ):
                            frame.member_idx = m_idx
                            frame.member_base = base
                            frame.edge_cursor = index + 1 - base
                            stack.append(Frame(new_vertices, new_columns))
                            break
                    else:  # member exhausted: activate the next one
                        m_idx += 1
                        base = -1
                        continue
                    break  # a child was pushed: descend into it
                else:  # every member exhausted
                    stack.pop()
    finally:
        app.candidates_checked += checked
    app.finalize(graph)
    return app


class FrontierOverflowError(RuntimeError):
    """Raised when a BFS frontier outgrows the configured limit.

    The BFS model's defining weakness (§V-A): intermediate embeddings must be
    materialised, and "a modest graph ... can quickly generate trillions of
    embeddings".  The limit turns that failure mode into a typed error, which
    the RStream baseline maps to the paper's 'N/A — out of disk' cells.
    """


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

    BFS frames are never split, so candidate streaming is a plain loop over
    each embedding's members and their adjacency slices.
    """
    mem = _charged(mem)
    access = mem.access if mem is not None else None
    n = graph.num_vertices
    offsets = graph.offsets.tolist()
    neighbors = graph.neighbors.tolist()
    app.prepare(graph)
    clique_only = app.clique_only
    app_filter = app.filter
    process = app.process
    aggregate_filter = app.aggregate_filter
    frontier: list[tuple[tuple[int, ...], tuple[int, ...]]] = [
        ((v,), (0,))
        for v in range(graph.num_vertices)
        if app.root_filter(graph, v)
    ]
    size = 1
    checked = 0
    try:
        while frontier and size < app.max_vertices:
            checked_before = checked
            next_frontier: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
            for vertices, columns in frontier:
                if not aggregate_filter(graph, vertices, columns):
                    continue
                if mem is not None:
                    mem.depth = len(vertices)
                for m_idx, member in enumerate(vertices):
                    if access is not None:
                        access(member)
                    for index in range(offsets[member], offsets[member + 1]):
                        if access is not None:
                            access(n + index)
                        candidate = neighbors[index]
                        checked += 1
                        column = _extend_check(
                            offsets, neighbors, n, vertices, m_idx, candidate,
                            clique_only, access, False,
                        )
                        if not column:
                            continue
                        new_vertices = vertices + (candidate,)
                        new_columns = columns + (column,)
                        if not app_filter(graph, new_vertices, new_columns):
                            continue
                        process(graph, new_vertices, new_columns)
                        next_frontier.append((new_vertices, new_columns))
                        if len(next_frontier) > max_frontier:
                            raise FrontierOverflowError(
                                f"frontier at size {size + 1} exceeded "
                                f"{max_frontier} embeddings"
                            )
            if frontier_observer is not None:
                frontier_observer(
                    size + 1, len(next_frontier), checked - checked_before
                )
            frontier = next_frontier
            size += 1
    finally:
        app.candidates_checked += checked
    app.finalize(graph)
    return app
