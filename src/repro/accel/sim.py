"""The GRAMER cycle-level simulator.

Event-driven simulation of the architecture in Fig. 6: an Arbitrator
round-robins initial embeddings over ``num_pus`` PUs; each PU interleaves up
to ``slots_per_pu`` DFS extension paths (slot IDs) through its pipeline;
every memory request flows through an 8-partition locality-aware memory
hierarchy and, on miss, a channelized DRAM model.

Model structure
---------------
* **Functional phase.**  When a slot needs work, one extension step (one
  candidate proposal + extend-check, or one traceback) runs *functionally*
  through the shared :func:`~repro.mining.engine.slot_step` with recording
  ``vertex``/``edge`` callbacks, producing the step's exact operation list
  (memory requests, each carrying the pipeline compute cycles preceding
  it).  Functional results are byte-identical to the software engine —
  the invariant "sim counts == software counts" is enforced by tests.
* **Timing phase.**  The recorded operations replay one event at a time
  through a global time-ordered event loop.  Because events are processed
  in nondecreasing timestamp order, contention on the PU issue port
  (1 embedding step/cycle), the memory partitions (1 request/cycle each)
  and the DRAM channels resolves exactly; dependent accesses within a
  candidate check serialize on the slot's clock, while the PU's other
  slots proceed — slot-level pipelining hides memory latency exactly as
  §V-B intends.

Cache state mutates at request *service* time (global time order), so
hit/miss outcomes see the true interleaving.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.reorder import rank_permutation
from repro.locality.occurrence import occurrence_numbers
from repro.memory.dram import DRAMModel
from repro.memory.hierarchy import AccessLevel, build_hierarchy
from repro.mining.apps.base import Application, MiningResult
from repro.mining.engine import Frame, slot_step

from .config import GramerConfig
from .frontend import dispatch_roots
from .pu import ProcessingUnit
from .stats import SimStats

if TYPE_CHECKING:
    from repro.obs.access import AccessTrace
    from repro.obs.hooks import SimInstrument

__all__ = [
    "GramerSimulator",
    "SimResult",
    "AncestorBufferOverflowError",
    "ENGINES",
    "BIT_IDENTICAL_ENGINES",
    "DEFAULT_ENGINE",
    "make_simulator",
    "resolve_vertex_rank",
]

_STEAL_RETRY_CYCLES = 32

#: Engine choices accepted everywhere an ``engine=`` knob exists.
#: ``"fast"`` is the batched engine of :mod:`repro.accel.fastsim`,
#: bit-identical to ``"reference"`` (the event-by-event model below) and
#: the default for every untraced run.  ``"turbo"``
#: (:mod:`repro.accel.turbosim`) keeps the mining pass exact but replays
#: timing through a decoupled batched model — timing fields are within
#: declared tolerance bands of the reference, not byte-equal
#: (docs/turbo.md).
ENGINES = ("fast", "reference", "turbo")
DEFAULT_ENGINE = "fast"

#: The engines whose ``SimStats`` are byte-identical to each other; the
#: bit-identity differential suite and benchmarks iterate these, never
#: ``ENGINES`` (turbo is validated by the tolerance suite instead).
BIT_IDENTICAL_ENGINES = ("fast", "reference")


def resolve_vertex_rank(
    graph: CSRGraph,
    vertex_rank: np.ndarray | None,
    use_on1_ranks: bool,
) -> np.ndarray:
    """Resolve the ON1 rank map exactly as the simulators expect it.

    Shared by both engines so rank validation/derivation cannot drift.
    """
    if vertex_rank is not None:
        resolved = np.asarray(vertex_rank, dtype=np.int64)
        if len(resolved) != graph.num_vertices:
            raise ValueError("vertex_rank must have one entry per vertex")
        return resolved
    if use_on1_ranks:
        return rank_permutation(occurrence_numbers(graph, hops=1))
    return np.arange(graph.num_vertices, dtype=np.int64)


def make_simulator(
    graph: CSRGraph,
    config: GramerConfig | None = None,
    *,
    engine: str = DEFAULT_ENGINE,
    vertex_rank: np.ndarray | None = None,
    use_on1_ranks: bool = True,
    instrument: "SimInstrument | None" = None,
    access_trace: "AccessTrace | None" = None,
):
    """Construct a GRAMER simulator with engine selection.

    This is the one supported way to build a simulator outside
    ``repro.accel`` (enforced by ``gramer check`` rule GRM701), so the
    fast and reference engines stay swappable at every call site.

    ``engine="fast"`` (the default) returns the batched engine, which is
    bit-identical to the reference on every ``SimStats`` field (proven by
    ``tests/differential/``).  ``engine="reference"`` forces the
    event-by-event model.  ``engine="turbo"`` returns the decoupled-timing
    engine: mining counts and exception behaviour stay exact while timing
    fields are only tolerance-banded against the reference
    (``tests/differential/tolerance.py``).  Passing an ``instrument`` or
    an ``access_trace`` always selects the reference engine: observability
    hooks fire on per-event state the batched engines do not materialise.
    """
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    if instrument is not None or access_trace is not None or engine == "reference":
        return GramerSimulator(
            graph,
            config,
            vertex_rank=vertex_rank,
            use_on1_ranks=use_on1_ranks,
            instrument=instrument,
            access_trace=access_trace,
        )
    if engine == "turbo":
        from .turbosim import TurboGramerSimulator

        return TurboGramerSimulator(
            graph,
            config,
            vertex_rank=vertex_rank,
            use_on1_ranks=use_on1_ranks,
        )
    from .fastsim import FastGramerSimulator

    return FastGramerSimulator(
        graph,
        config,
        vertex_rank=vertex_rank,
        use_on1_ranks=use_on1_ranks,
    )

# Operation kinds.  Each recorded op is (kind, address, src, pre_cycles):
# pre_cycles of pipeline compute precede the request; _OP_END carries only
# the step's trailing compute.
_OP_VERTEX = 0
_OP_EDGE = 1
_OP_END = 2


class AncestorBufferOverflowError(RuntimeError):
    """DFS depth exceeded the PU's ancestor-buffer capacity (16 entries)."""


@dataclass(frozen=True)
class SimResult:
    """Output of one accelerator run."""

    stats: SimStats
    mining: MiningResult
    config: GramerConfig

    @property
    def cycles(self) -> int:
        """Total execution cycles."""
        return self.stats.cycles

    @property
    def seconds(self) -> float:
        """Wall-clock time at the configured clock."""
        return self.stats.seconds(self.config.clock_mhz)


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


class GramerSimulator:
    """Simulate GRAMER running one mining application on one graph.

    ``vertex_rank`` maps vertex ID to its ON1 rank.  By default ranks are
    computed from the 1-hop occurrence numbers (§IV-B); the paper physically
    reorders the graph so ID == rank, which is behaviourally identical to
    carrying the rank map, so the simulator keeps original IDs plus the map.
    Pass ``use_on1_ranks=False`` for the rank-oblivious ablation.
    """

    def __init__(
        self,
        graph: CSRGraph,
        config: GramerConfig | None = None,
        vertex_rank: np.ndarray | None = None,
        use_on1_ranks: bool = True,
        instrument: "SimInstrument | None" = None,
        access_trace: "AccessTrace | None" = None,
    ) -> None:
        self.graph = graph
        self.config = config if config is not None else GramerConfig()
        # Purely observational (repro.obs.hooks.SimInstrument); every hook
        # reads simulator state and never writes it, so a traced run is
        # bit-identical to an untraced one.  The same contract covers the
        # access trace: the hierarchy/cache observers and the ancestor
        # emitter only append events.
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
        if self.access_trace is not None:
            from repro.obs.hooks import attach_access_observers

            attach_access_observers(self.hierarchy, self.access_trace)

    # -- functional phase ---------------------------------------------------

    def _record_step(self, pu: ProcessingUnit, slot, app: Application) -> None:
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
        trace = self.access_trace
        if trace is not None:
            # Stamp the trace clock with the request's service time; the
            # hierarchy observers emit at this timestamp.
            trace.cycle = start
        if kind == _OP_VERTEX:
            level = self.hierarchy.access_vertex(address)
        else:
            level = self.hierarchy.access_edge(address, src)
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

    def run(self, app: Application) -> SimResult:
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
            if ins is not None:
                ins.advance(t, stats, pus)

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
            ins.finish_run(stats, pus)
        return SimResult(stats=stats, mining=app.result(), config=cfg)
