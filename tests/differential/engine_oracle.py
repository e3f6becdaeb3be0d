"""Step-wise oracles for the extend-check kernel and the cycle simulator.

The engine's DFS/BFS drivers in their plain step-wise form: every
candidate goes through :func:`advance_frame` and :func:`check_candidate`,
which index the numpy CSR arrays per access and binary-search (or scan)
each member's slice in :func:`_search_adjacency`.
:mod:`repro.mining.engine` must agree with them on every mining result,
every ``candidates_checked`` count, every frontier-observer call and every
``(depth, kind, id, src)`` memory access.  Its ``slot_step`` must step
every frame, whole or split by work stealing, like one
:func:`advance_frame` + :func:`check_candidate` pair.

:class:`ReferenceSimulator` is GRAMER's cycle model (§V, Fig. 6) in its
per-event form: one heap pop per event, per-PU and per-slot objects, and
the object-model LAMH of :mod:`repro.memory.hierarchy`.
:class:`repro.accel.sim.GramerSimulator` must agree with it on every
``SimStats`` field, every mining result and every raised exception type,
and, when hooked, on every tracer event, timeline window, steal latency and
access-trace record.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.accel.config import GramerConfig
from repro.accel.frontend import dispatch_roots
from repro.accel.scheduler import Stealer
from repro.accel.sim import (
    _STEAL_RETRY_CYCLES,
    AncestorBufferOverflowError,
    SimResult,
    resolve_vertex_rank,
)
from repro.accel.stats import SimStats
from repro.memory.dram import DRAMModel
from repro.memory.hierarchy import AccessLevel, build_hierarchy
from repro.mining.canonical import id_checks_pass
from repro.mining.engine import (
    Frame,
    FrontierOverflowError,
    MemoryModel,
    NullMemory,
    slot_step,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.csr import CSRGraph
    from repro.mining.apps.base import Application
    from repro.obs.access import AccessTrace
    from repro.obs.hooks import SimInstrument

__all__ = [
    "advance_frame",
    "check_candidate",
    "run_dfs",
    "run_bfs",
    "ReferenceSimulator",
    "SlotContext",
]


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


# -- the per-event cycle simulator ---------------------------------------------

# Operation kinds.  Each recorded op is (kind, address, src, pre_cycles):
# pre_cycles of pipeline compute precede the request; _OP_END carries only
# the step's trailing compute.
_OP_VERTEX = 0
_OP_EDGE = 1
_OP_END = 2


class SlotContext:
    """One pipeline slot: an ancestor-buffer stack plus its local clock.

    ``pending`` holds the recorded-but-not-yet-timed operations of the
    step in flight.
    """

    __slots__ = (
        "slot_id",
        "stack",
        "time",
        "busy_cycles",
        "pending",
    )

    def __init__(self, slot_id: int) -> None:
        self.slot_id = slot_id
        self.stack: list[Frame] = []
        self.time = 0
        self.busy_cycles = 0
        self.pending: deque = deque()

    @property
    def idle(self) -> bool:
        """Whether the slot has no extension path."""
        return not self.stack

    @property
    def depth(self) -> int:
        """Current ancestor-buffer occupancy."""
        return len(self.stack)


class ProcessingUnit:
    """One GRAMER PU: slots, work stealing, issue port."""

    def __init__(self, index: int, config: GramerConfig) -> None:
        self.index = index
        self.config = config
        self.slots = [SlotContext(i) for i in range(config.slots_per_pu)]
        self.stealer = Stealer(
            index,
            [slot.stack for slot in self.slots],
            config.steal_victim_select == "random",
        )
        self.next_free = 0  # scheduler issue port availability (cycles)
        self.busy_slots = 0


class _RecordingMemory:
    """Records a step's requests, each with the compute preceding it."""

    __slots__ = ("ops", "pre_cycles")

    def __init__(self) -> None:
        self.ops: list[tuple[int, int, int, int]] = []
        self.pre_cycles = 0

    def vertex(self, vid: int) -> None:
        self.ops.append((_OP_VERTEX, vid, 0, self.pre_cycles))
        self.pre_cycles = 0

    def edge(self, index: int, src: int) -> None:
        self.ops.append((_OP_EDGE, index, src, self.pre_cycles))
        self.pre_cycles = 0

    def compute(self, cycles: int) -> None:
        """Accumulate pipeline work to attach to the next request."""
        self.pre_cycles += cycles

    def finish(self) -> list[tuple[int, int, int, int]]:
        """Close the step, flushing trailing compute as an END op."""
        if self.pre_cycles or not self.ops:
            self.ops.append((_OP_END, 0, 0, self.pre_cycles))
            self.pre_cycles = 0
        return self.ops


class ReferenceSimulator:
    """Per-event GRAMER cycle model with the engine's constructor contract.

    Functional phase: one extension step runs through
    :func:`~repro.mining.engine.slot_step` with recording callbacks,
    producing the step's operation list.  Timing phase: the operations
    replay one heap event at a time, in ``(time, push order)`` order, so
    issue-port, partition and DRAM-channel contention resolve exactly.
    Cache state mutates at service time.
    """

    def __init__(
        self,
        graph: "CSRGraph",
        config: GramerConfig | None = None,
        vertex_rank: np.ndarray | None = None,
        use_on1_ranks: bool = True,
        instrument: "SimInstrument | None" = None,
        access_trace: "AccessTrace | None" = None,
    ) -> None:
        self.graph = graph
        self.config = config if config is not None else GramerConfig()
        self.instrument = instrument
        self.access_trace = access_trace
        self._emit_ancestor = None
        if access_trace is not None:
            from repro.obs.hooks import ancestor_push_emitter

            self._emit_ancestor = ancestor_push_emitter(
                access_trace, depth_capacity=self.config.ancestor_depth
            )
        self.vertex_rank = resolve_vertex_rank(graph, vertex_rank, use_on1_ranks)
        self._reset()

    def _reset(self) -> None:
        cfg = self.config
        self.hierarchy = build_hierarchy(
            self.graph,
            total_entries=cfg.onchip_entries,
            vertex_rank=self.vertex_rank,
            tau=cfg.tau,
            low_policy=cfg.low_policy,
            lam=cfg.lam,
            ways=cfg.cache_ways,
            vertex_line=cfg.vertex_line_entries,
            edge_line=cfg.edge_line_entries,
        )
        self.dram = DRAMModel(
            latency_cycles=cfg.dram_latency,
            channels=cfg.dram_channels,
            cycles_per_transfer=cfg.dram_cycles_per_transfer,
        )
        self.partition_free = [0] * cfg.num_partitions
        self.stats = SimStats()
        self._recorder = _RecordingMemory()
        self._emitters = None
        if self.access_trace is not None:
            from repro.obs.hooks import lamh_access_emitters

            self._emitters = lamh_access_emitters(
                self.hierarchy, self.access_trace
            )

    # -- functional phase ---------------------------------------------------

    def _record_step(self, pu: ProcessingUnit, slot, app: "Application") -> None:
        """Run one extension step functionally; queue its timed operations."""
        graph, cfg, stats = self.graph, self.config, self.stats
        recorder = self._recorder
        recorder.ops = []
        recorder.pre_cycles = 0
        recorder.compute(cfg.issue_cycles)
        frame = slot.stack[-1]
        candidate, column = slot_step(
            self._offsets, self._neighbors, frame, app.clique_only,
            cfg.probe_mode == "scan", recorder.vertex, recorder.edge,
        )
        if candidate is None:
            slot.stack.pop()
            recorder.compute(1)  # traceback: dequeue the ancestor record
        else:
            stats.candidates_checked += 1
            app.candidates_checked += 1
            recorder.compute(cfg.check_cycles)
            if column:
                vertices = frame.vertices + (candidate,)
                columns = frame.columns + (column,)
                if app.filter(graph, vertices, columns):
                    app.process(graph, vertices, columns)
                    recorder.compute(cfg.process_cycles)
                    stats.embeddings_accepted += 1
                    if len(vertices) < app.max_vertices and app.aggregate_filter(
                        graph, vertices, columns
                    ):
                        if len(slot.stack) >= cfg.ancestor_depth:
                            raise AncestorBufferOverflowError(
                                "extension depth exceeds ancestor buffer "
                                f"capacity {cfg.ancestor_depth}"
                            )
                        slot.stack.append(Frame(vertices, columns))
                        if self._emit_ancestor is not None:
                            self._emit_ancestor(
                                slot.slot_id, len(slot.stack), slot.time
                            )
                        # §V-C: every embedding the Scheduler receives
                        # re-records its slot, keeping busy slots visible
                        # to idle thieves.
                        pu.stealer.buffer.push(slot.slot_id)

        slot.pending.extend(recorder.finish())

    # -- timing phase ---------------------------------------------------------

    def _observe_access(self, kind: int, address: int, src: int, level) -> None:
        """Emit the access-trace records of one serviced request."""
        hierarchy = self.hierarchy
        if kind == _OP_VERTEX:
            side = hierarchy.vertex_side
            rank = int(hierarchy.vertex_rank[address])
            serve, fill = self._emitters[0]
        else:
            side = hierarchy.edge_side
            if hierarchy.edge_rank is not None:
                rank = int(hierarchy.edge_rank[address])
            else:
                rank = int(hierarchy.vertex_rank[src])
            serve, fill = self._emitters[1]
        if level is AccessLevel.MISS:
            # Every low-cache miss installs its line.
            fill((address + side.address_offset) // side.low_cache.line_size)
        serve(rank, level.value)

    def _service_op(
        self, pu: ProcessingUnit, slot, first: bool
    ) -> None:
        """Apply the slot's next recorded operation to its clock."""
        cfg, stats = self.config, self.stats
        kind, address, src, pre = slot.pending.popleft()
        if first:
            # The step's first operation claims the PU's single-issue port.
            start = max(slot.time, pu.next_free)
            pu.next_free = start + cfg.issue_cycles
            slot.time = start + pre
        else:
            slot.time += pre
        stats.compute_cycles += pre
        if kind == _OP_END:
            return
        if kind == _OP_VERTEX:
            partition_index = address % cfg.num_partitions
        else:
            partition_index = (
                address // cfg.edge_line_entries
            ) % cfg.num_partitions
        start = max(slot.time, self.partition_free[partition_index])
        self.partition_free[partition_index] = start + 1
        if kind == _OP_VERTEX:
            level = self.hierarchy.access_vertex(address)
        else:
            level = self.hierarchy.access_edge(address, src)
        trace = self.access_trace
        if trace is not None:
            # Stamp the trace clock with the request's service time.
            trace.cycle = start
            self._observe_access(kind, address, src, level)
        if level is AccessLevel.HIGH:
            done = start + cfg.spm_latency
        elif level is AccessLevel.LOW_HIT:
            done = start + cfg.cache_hit_latency
        else:
            done = self.dram.service(start, address)
            ins = self.instrument
            if ins is not None:
                ins.dram_fetch(
                    pu.index,
                    slot.slot_id,
                    kind,
                    address,
                    ts=start,
                    dur=done - start,
                    channel=address % cfg.dram_channels,
                )
        if kind == _OP_VERTEX:
            if level is AccessLevel.HIGH:
                stats.vertex_high_hits += 1
            elif level is AccessLevel.LOW_HIT:
                stats.vertex_low_hits += 1
            else:
                stats.vertex_misses += 1
            stats.vertex_wait_cycles += done - slot.time
        else:
            if level is AccessLevel.HIGH:
                stats.edge_high_hits += 1
            elif level is AccessLevel.LOW_HIT:
                stats.edge_low_hits += 1
            else:
                stats.edge_misses += 1
            stats.edge_wait_cycles += done - slot.time
        slot.time = done

    # -- main loop ----------------------------------------------------------

    def run(self, app: "Application") -> SimResult:
        """Execute ``app`` to completion; returns stats + mining results."""
        self._reset()
        graph, cfg, stats = self.graph, self.config, self.stats
        self._offsets = graph.offsets.tolist()
        self._neighbors = graph.neighbors.tolist()
        app.prepare(graph)
        dispatch = dispatch_roots(
            (v for v in range(graph.num_vertices) if app.root_filter(graph, v)),
            cfg.num_pus,
            cfg.prefetch_interval,
            policy=cfg.arbitrator,
            degrees=graph.degrees(),
        )
        pus = [ProcessingUnit(p, cfg) for p in range(cfg.num_pus)]
        ins = self.instrument
        if ins is not None:
            ins.begin_run(cfg.num_pus, stats)

        heap: list[tuple[int, int, int, int]] = []
        seq = 0
        for p in range(cfg.num_pus):
            for s in range(cfg.slots_per_pu):
                heapq.heappush(heap, (0, seq, p, s))
                seq += 1

        while heap:
            t, _, p, s = heapq.heappop(heap)
            pu = pus[p]
            slot = pu.slots[s]
            if t > slot.time:
                slot.time = t
            if ins is not None and t >= ins.sampler.next_boundary:
                ins.advance(t, stats, sum(unit.busy_slots for unit in pus))

            if slot.pending:
                before = slot.time
                self._service_op(pu, slot, first=False)
                slot.busy_cycles += slot.time - before
                if not slot.pending:
                    if slot.idle:
                        pu.busy_slots -= 1
                    if ins is not None:
                        ins.step_finished(p, s, slot.time)
                heapq.heappush(heap, (slot.time, seq, p, s))
                seq += 1
                continue

            if slot.idle:
                item = dispatch.pop(p)
                if item is not None:
                    root, arrival = item
                    slot.time = max(slot.time, arrival)
                    slot.stack.append(Frame((root,), (0,)))
                    stats.roots_dispatched += 1
                    pu.busy_slots += 1
                    pu.stealer.buffer.push(s)
                    if ins is not None:
                        ins.root_dispatched(p, s, root, slot.time)
                elif cfg.work_stealing and pu.busy_slots > 0:
                    stats.steal_attempts += 1
                    if ins is not None:
                        ins.steal_attempted(p, s, slot.time)
                    if pu.stealer.steal(s) >= 0:
                        stats.steals += 1
                        pu.busy_slots += 1
                        if ins is not None:
                            ins.steal_succeeded(p, s, slot.time)
                    else:
                        heapq.heappush(
                            heap, (slot.time + _STEAL_RETRY_CYCLES, seq, p, s)
                        )
                        seq += 1
                        continue
                else:
                    continue  # slot parks: no roots, nothing to steal

            # Record the next step; its first operation claims the issue
            # port now, the rest replay as later events.
            if ins is not None:
                ins.step_started(p, s, slot.time, len(slot.stack))
            self._record_step(pu, slot, app)
            before = slot.time
            self._service_op(pu, slot, first=True)
            slot.busy_cycles += slot.time - before
            if not slot.pending:
                if slot.idle:
                    pu.busy_slots -= 1
                if ins is not None:
                    ins.step_finished(p, s, slot.time)
            heapq.heappush(heap, (slot.time, seq, p, s))
            seq += 1

        app.finalize(graph)
        stats.cycles = max(
            (slot.time for pu in pus for slot in pu.slots), default=0
        )
        stats.pu_finish_cycles = [
            max((slot.time for slot in pu.slots), default=0) for pu in pus
        ]
        stats.pu_busy_cycles = [
            sum(slot.busy_cycles for slot in pu.slots) for pu in pus
        ]
        if ins is not None:
            ins.finish_run(stats, sum(unit.busy_slots for unit in pus))
        return SimResult(stats=stats, mining=app.result(), config=cfg)
