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
  through the shared :func:`~repro.mining.engine.slot_step`, which appends
  each access's code (``v`` for vertex ``v``, ``n + i`` for edge slot
  ``i``) straight into the slot's op list; one END code, ``~cycles``,
  carries the step's trailing pipeline compute.
  Functional results are byte-identical to the software engine — the
  invariant "sim counts == software counts" is enforced by tests.
* **Timing phase.**  The recorded operations replay one event at a time
  through a global time-ordered event loop.  Because events are processed
  in nondecreasing timestamp order, contention on the PU issue port
  (1 embedding step/cycle), the memory partitions (1 request/cycle each)
  and the DRAM channels resolves exactly; dependent accesses within a
  candidate check serialize on the slot's clock, while the PU's other
  slots proceed — slot-level pipelining hides memory latency exactly as
  §V-B intends.  Cache state mutates at request *service* time (global
  time order), so hit/miss outcomes see the true interleaving.

Implementation
--------------
* **Flattened memory state.**  Cache sets live in flat tag/rank/last-access
  arrays indexed by ``set * ways + way`` (tag ``-1`` = invalid); hit scans,
  fills and the Equation-2 victim search are inlined over those arrays.
  The sets, ways, lines and cutoffs come from one
  :class:`~repro.memory.hierarchy.LAMHGeometry` per run, and the run's
  counts become a :class:`~repro.memory.hierarchy.LAMHReport`
  (``self.hierarchy``, also handed to an instrument's ``finish_run``) for
  ``gramer profile``.
* **Batched slot state.**  Per-slot clocks and recorded-op queues (plain
  int lists, filled by their own ``append``) are parallel lists indexed by
  global slot id; work stealing is the shared
  :class:`~repro.accel.scheduler.Stealer`.  One rank list indexed by op
  code gives every request's rank with one lookup.
* **Calendar event queue.**  Events pop in ``(time, push order)`` order.
  FIFO buckets indexed by cycle (Brown, CACM 1988) give that order with
  list appends; events past the ring's window wait aside and become their
  bucket before any later push for that cycle can land in it.
* **Observability hooks.**  An optional
  :class:`~repro.obs.hooks.SimInstrument` and
  :class:`~repro.obs.access.AccessTrace` are called from inside the loop,
  each site behind one ``is not None`` test.  They only read simulator
  state, so a hooked run is bit-identical to an unhooked one.

``tests/differential/engine_oracle.py`` keeps the per-event form of this
model (one heap pop per event, per-PU and per-slot objects, the
object-model LAMH of ``tests/differential/lamh_oracle.py``) as
``ReferenceSimulator``; the differential suites
hold this engine to it on every ``SimStats`` field, mining result,
exception type, tracer event, timeline window and access-trace record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.reorder import rank_permutation
from repro.locality.occurrence import occurrence_numbers
from repro.memory.hierarchy import LAMHGeometry, LAMHReport
from repro.mining.apps.base import Application, MiningResult
from repro.mining.engine import Frame, slot_step

from .config import GramerConfig
from .frontend import dispatch_roots
from .scheduler import Stealer
from .stats import SimStats

if TYPE_CHECKING:
    from repro.obs.access import AccessTrace
    from repro.obs.hooks import SimInstrument

__all__ = [
    "GramerSimulator",
    "SimResult",
    "AncestorBufferOverflowError",
    "make_simulator",
    "resolve_vertex_rank",
]

_STEAL_RETRY_CYCLES = 32

# Calendar-queue window in cycles, a power of two; later events go to `far`.
_RING = 512


def resolve_vertex_rank(
    graph: CSRGraph,
    vertex_rank: np.ndarray | None,
    use_on1_ranks: bool,
) -> np.ndarray:
    """Resolve the ON1 rank map exactly as the simulator expects it.

    Shared with the test oracle so rank validation/derivation cannot drift.
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
    vertex_rank: np.ndarray | None = None,
    use_on1_ranks: bool = True,
    instrument: "SimInstrument | None" = None,
    access_trace: "AccessTrace | None" = None,
) -> "GramerSimulator":
    """Construct a GRAMER simulator.

    This is the one constructor used outside ``repro.accel`` (``gramer
    check`` rule GRM701 enforces it); it is kept, with that rule, until
    the benchmark golden that pins the rule's findings next changes.
    """
    return GramerSimulator(
        graph,
        config,
        vertex_rank=vertex_rank,
        use_on1_ranks=use_on1_ranks,
        instrument=instrument,
        access_trace=access_trace,
    )


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


class GramerSimulator:
    """Simulate GRAMER running one mining application on one graph.

    ``vertex_rank`` maps vertex ID to its ON1 rank.  By default ranks are
    computed from the 1-hop occurrence numbers (§IV-B); the paper physically
    reorders the graph so ID == rank, which is behaviourally identical to
    carrying the rank map, so the simulator keeps original IDs plus the map.
    Pass ``use_on1_ranks=False`` for the rank-oblivious ablation.

    ``instrument`` (tracer events, timeline windows, steal latencies) and
    ``access_trace`` (memory-access records) are purely observational.
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
        self.instrument = instrument
        self.access_trace = access_trace
        self.vertex_rank = resolve_vertex_rank(graph, vertex_rank, use_on1_ranks)
        self.stats = SimStats()

    # The run loop is one deliberately monolithic function: every helper
    # call it avoids is ~100ns × tens of millions of events.
    def run(self, app: Application) -> SimResult:  # noqa: C901
        """Execute ``app`` to completion; returns stats + mining results."""
        graph, cfg = self.graph, self.config

        # -- LAMH geometry -> flat cache state ------------------------------
        geo = LAMHGeometry.build(cfg, graph, self.vertex_rank)
        v_cut = geo.vertex_cutoff
        e_cut = geo.edge_cutoff
        shared = geo.shared  # uniform-LRU baseline: one cache, offset edges
        locality = geo.locality
        lam = geo.lam
        rank_scale = geo.rank_scale

        ways = geo.ways
        v_sets = geo.vertex_sets
        v_line = geo.vertex_line
        v_tags = [-1] * (v_sets * ways)
        v_ranks = [0] * (v_sets * ways)
        v_last = [0] * (v_sets * ways)
        v_evict = [0] * (v_sets * ways)  # evictions, at each set's first way
        v_clock = 0  # the shared cache's clock in the uniform baseline
        e_sets = geo.edge_sets
        e_line = geo.edge_line
        if shared:
            e_tags, e_ranks, e_last = v_tags, v_ranks, v_last
            e_evict = v_evict
        else:
            e_tags = [-1] * (e_sets * ways)
            e_ranks = [0] * (e_sets * ways)
            e_last = [0] * (e_sets * ways)
            e_evict = [0] * (e_sets * ways)
        e_clock = 0
        e_addr_off = geo.edge_offset

        # Python lists: numpy scalar indexing costs more than the model,
        # and values are identical post-tolist().  An op is its access's
        # MemoryModel code (vertex v -> v, edge slot i -> n + i), so one
        # list gives every op's rank: the vertex ranks, then each edge
        # slot's (in the uniform baseline, its CSR owner's vertex rank).
        n = graph.num_vertices
        edge_rank = geo.edge_rank
        if edge_rank is None:
            edge_rank = np.repeat(self.vertex_rank, graph.degrees())
        ranks = self.vertex_rank.tolist() + edge_rank.tolist()
        offsets = graph.offsets.tolist()
        neighbors = graph.neighbors.tolist()

        # -- config scalars ------------------------------------------------
        issue_cycles = cfg.issue_cycles
        check_cycles = cfg.check_cycles
        process_cycles = cfg.process_cycles
        spm_lat = cfg.spm_latency
        hit_lat = cfg.cache_hit_latency
        nparts = cfg.num_partitions
        part_line = cfg.edge_line_entries
        nch = cfg.dram_channels
        d_lat = cfg.dram_latency
        d_cpt = cfg.dram_cycles_per_transfer
        ancestor_depth = cfg.ancestor_depth
        stealing = cfg.work_stealing
        random_steal = cfg.steal_victim_select == "random"
        scan_probe = cfg.probe_mode == "scan"
        P = cfg.num_pus
        S = cfg.slots_per_pu
        G = P * S

        # -- application + root dispatch ------------------------------------
        app.prepare(graph)
        clique_only = app.clique_only
        max_vertices = app.max_vertices
        app_filter = app.filter
        app_process = app.process
        app_aggregate = app.aggregate_filter
        dispatch = dispatch_roots(
            (v for v in range(graph.num_vertices) if app.root_filter(graph, v)),
            P,
            cfg.prefetch_interval,
            policy=cfg.arbitrator,
            degrees=graph.degrees(),
        )
        dqueues = dispatch.queues

        # -- batched slot / PU state (global slot id g = p * S + s) --------
        # Busy cycles are derived, not accumulated: a slot is busy from t=0
        # to its final time except for idle gaps (dispatch arrival waits,
        # steal-retry backoffs), which are rare and recorded where they
        # occur: busy[g] == final_time[g] - gap[g].
        slot_time = [0] * G
        slot_gap = [0] * G
        stacks: list[list[Frame]] = [[] for _ in range(G)]
        # A slot's recorded ops of the step in flight: slot_step appends
        # the access codes straight into the list.  Memory ops carry no
        # compute (the issue cycles precede the first op); the trailing
        # compute rides in one END op, code ~pre (negative).
        slot_ops: list[list[int]] = [[] for _ in range(G)]
        slot_append = [ops.append for ops in slot_ops]
        pu_free = [0] * P
        pu_busy = [0] * P
        stealers = [
            Stealer(p, stacks[p * S:(p + 1) * S], random_steal) for p in range(P)
        ]
        sbufs = [stealer.buffer for stealer in stealers]
        pu_of = [g // S for g in range(G)]
        sid_of = [g % S for g in range(G)]
        part_free = [0] * nparts
        ch_free = [0] * nch

        # -- observability hooks --------------------------------------------
        ins = self.instrument
        trace = self.access_trace
        window_end = 0  # the instrument's next timeline window boundary
        if ins is not None:
            ins.begin_run(P, SimStats())
            window_end = ins.sampler.next_boundary
        emit_ancestor = None
        if trace is not None:
            from repro.obs.hooks import ancestor_push_emitter, lamh_access_emitters

            emit_ancestor = ancestor_push_emitter(
                trace, depth_capacity=ancestor_depth
            )
            (v_serve, v_fill), (e_serve, e_fill) = lamh_access_emitters(
                trace, v_line, e_line
            )

        # -- stats accumulators (folded into SimStats at the end) ----------
        candidates_checked = 0
        embeddings_accepted = 0
        roots_dispatched = 0
        steals = 0
        steal_attempts = 0
        v_hi = v_lo = v_miss = 0
        e_hi = e_lo = e_miss = 0
        compute_cycles = 0
        v_wait = e_wait = 0

        # Calendar queue (Brown, CACM 1988): ring[t & mask] lists the slots
        # due at cycle t in push order, for t in [now, now + R); far[t] holds
        # later ones and becomes bucket t before any push for t can land in
        # it.  So buckets pop in (t, push order) order; seeds are every slot
        # at t=0, row-major.
        R = _RING
        mask = R - 1
        ring: list[list[int]] = [[] for _ in range(R)]
        ring[0].extend(range(G))
        far: dict[int, list[int]] = {}
        live = G  # slots with a pending event; a parked slot never returns
        now = 0

        try:
            while live:
                horizon = now + R
                bucket = ring[now & mask]
                if ins is not None and now >= window_end:
                    # Snapshot the counters only when a window closes.
                    ins.advance(
                        now,
                        SimStats(
                            candidates_checked=candidates_checked,
                            embeddings_accepted=embeddings_accepted,
                            roots_dispatched=roots_dispatched,
                            steals=steals,
                            steal_attempts=steal_attempts,
                            vertex_high_hits=v_hi,
                            vertex_low_hits=v_lo,
                            vertex_misses=v_miss,
                            edge_high_hits=e_hi,
                            edge_low_hits=e_lo,
                            edge_misses=e_miss,
                            compute_cycles=compute_cycles,
                            vertex_wait_cycles=v_wait,
                            edge_wait_cycles=e_wait,
                        ),
                        sum(pu_busy),
                    )
                    window_end = ins.sampler.next_boundary
                # A list iterator visits appends: a slot pushed back at `now`
                # runs after all already queued, as its later push dictates.
                for g in bucket:
                    tg = slot_time[g]
                    if now > tg:
                        slot_gap[g] += now - tg
                        tg = now
                    ops = slot_ops[g]
                    if ops:
                        code = ops.pop()
                    else:
                        # -- slot needs a new step ---------------------------
                        p = pu_of[g]
                        stack = stacks[g]
                        if not stack:
                            q = dqueues[p]
                            if q:
                                root, arrival = q.popleft()
                                if arrival > tg:
                                    slot_gap[g] += arrival - tg
                                    tg = arrival
                                stack.append(Frame((root,), (0,)))
                                roots_dispatched += 1
                                pu_busy[p] += 1
                                sbufs[p].push(sid_of[g])
                                if ins is not None:
                                    ins.root_dispatched(p, sid_of[g], root, tg)
                            elif stealing and pu_busy[p] > 0:
                                steal_attempts += 1
                                if ins is not None:
                                    ins.steal_attempted(p, sid_of[g], tg)
                                if stealers[p].steal(sid_of[g]) >= 0:
                                    steals += 1
                                    pu_busy[p] += 1
                                    if ins is not None:
                                        ins.steal_succeeded(p, sid_of[g], tg)
                                else:
                                    slot_time[g] = tg
                                    nt = tg + _STEAL_RETRY_CYCLES
                                    if nt < horizon:
                                        ring[nt & mask].append(g)
                                    else:
                                        far.setdefault(nt, []).append(g)
                                    continue
                            else:
                                # Slot parks: no roots, nothing to steal.
                                slot_time[g] = tg
                                live -= 1
                                continue

                        # -- functional phase --------------------------------
                        if ins is not None:
                            ins.step_started(p, sid_of[g], tg, len(stack))
                        candidate, column = slot_step(
                            offsets, neighbors, stack[-1], clique_only,
                            scan_probe, slot_append[g],
                        )
                        # The issue compute is charged as the step starts,
                        # its trailing compute (`pre`) when the END op is
                        # serviced, so timeline windows see each at its time.
                        compute_cycles += issue_cycles
                        if candidate is None:
                            stack.pop()
                            pre = 1  # traceback: dequeue the ancestor record
                        else:
                            candidates_checked += 1
                            pre = check_cycles
                            if column:
                                frame = stack[-1]
                                new_vertices = frame.vertices + (candidate,)
                                new_columns = frame.columns + (column,)
                                if app_filter(graph, new_vertices, new_columns):
                                    app_process(graph, new_vertices, new_columns)
                                    pre += process_cycles
                                    embeddings_accepted += 1
                                    if len(new_vertices) < max_vertices and (
                                        app_aggregate(
                                            graph, new_vertices, new_columns
                                        )
                                    ):
                                        if len(stack) >= ancestor_depth:
                                            raise AncestorBufferOverflowError(
                                                "extension depth exceeds "
                                                "ancestor buffer capacity "
                                                f"{ancestor_depth}"
                                            )
                                        stack.append(
                                            Frame(new_vertices, new_columns)
                                        )
                                        sbufs[p].push(sid_of[g])
                                        if emit_ancestor is not None:
                                            emit_ancestor(
                                                sid_of[g], len(stack), tg
                                            )
                        if pre or not ops:
                            ops.append(~pre)  # END: trailing compute
                        # Consumed back-to-front with list.pop(): cheaper
                        # than cursor bookkeeping, and `ops` doubles as the
                        # "step in flight" flag once reversed.
                        ops.reverse()
                        code = ops.pop()
                        # The step's first op claims the PU issue port, and
                        # the issue compute precedes it.
                        nf = pu_free[p]
                        start = tg if tg > nf else nf
                        pu_free[p] = start + issue_cycles
                        tg = start + issue_cycles

                    # -- timing phase: service the op ------------------------
                    if code >= n:  # edge slot `code - n`
                        address = code - n
                        pi = (address // part_line) % nparts
                        pf = part_free[pi]
                        start = tg if tg > pf else pf
                        part_free[pi] = start + 1
                        rank = ranks[code]
                        if rank < e_cut:
                            done = start + spm_lat
                            e_hi += 1
                        else:
                            if shared:
                                v_clock += 1
                                clk = v_clock
                            else:
                                e_clock += 1
                                clk = e_clock
                            tag = (address + e_addr_off) // e_line
                            base = (tag % e_sets) * ways
                            end = base + ways
                            w = base
                            hit = False
                            while w < end:
                                if e_tags[w] == tag:
                                    e_last[w] = clk
                                    hit = True
                                    break
                                w += 1
                            if hit:
                                done = start + hit_lat
                                e_lo += 1
                            else:
                                victim = -1
                                w = base
                                while w < end:
                                    if e_tags[w] == -1:
                                        victim = w
                                        break
                                    w += 1
                                if victim < 0:
                                    e_evict[base] += 1
                                    if locality:
                                        victim = base
                                        best = (
                                            e_ranks[base] * rank_scale
                                            + lam * (clk - e_last[base])
                                        )
                                        w = base + 1
                                        while w < end:
                                            score = (
                                                e_ranks[w] * rank_scale
                                                + lam * (clk - e_last[w])
                                            )
                                            if score > best:
                                                best = score
                                                victim = w
                                            w += 1
                                    else:
                                        victim = base
                                        stale = e_last[base]
                                        w = base + 1
                                        while w < end:
                                            lw = e_last[w]
                                            if lw < stale:
                                                stale = lw
                                                victim = w
                                            w += 1
                                e_tags[victim] = tag
                                e_ranks[victim] = rank
                                e_last[victim] = clk
                                # DRAM channels key on the raw edge index.
                                ch = address % nch
                                cf = ch_free[ch]
                                ds = start if start > cf else cf
                                ch_free[ch] = ds + d_cpt
                                done = ds + d_lat
                                e_miss += 1
                                if ins is not None:
                                    ins.dram_fetch(
                                        pu_of[g], sid_of[g], 1, address,
                                        ts=start, dur=done - start, channel=ch,
                                    )
                        if trace is not None:
                            trace.cycle = start
                            if rank < e_cut:
                                e_serve(rank, "high")
                            elif hit:
                                e_serve(rank, "low_hit")
                            else:
                                e_fill(tag)
                                e_serve(rank, "miss")
                        e_wait += done - tg
                        tg = done
                    elif code >= 0:  # vertex record `code`
                        pi = code % nparts
                        pf = part_free[pi]
                        start = tg if tg > pf else pf
                        part_free[pi] = start + 1
                        rank = ranks[code]
                        if rank < v_cut:
                            done = start + spm_lat
                            v_hi += 1
                        else:
                            v_clock += 1
                            tag = code // v_line
                            base = (tag % v_sets) * ways
                            end = base + ways
                            w = base
                            hit = False
                            while w < end:
                                if v_tags[w] == tag:
                                    v_last[w] = v_clock
                                    hit = True
                                    break
                                w += 1
                            if hit:
                                done = start + hit_lat
                                v_lo += 1
                            else:
                                victim = -1
                                w = base
                                while w < end:
                                    if v_tags[w] == -1:
                                        victim = w
                                        break
                                    w += 1
                                if victim < 0:
                                    v_evict[base] += 1
                                    if locality:
                                        victim = base
                                        best = (
                                            v_ranks[base] * rank_scale
                                            + lam * (v_clock - v_last[base])
                                        )
                                        w = base + 1
                                        while w < end:
                                            score = (
                                                v_ranks[w] * rank_scale
                                                + lam * (v_clock - v_last[w])
                                            )
                                            if score > best:
                                                best = score
                                                victim = w
                                            w += 1
                                    else:
                                        victim = base
                                        stale = v_last[base]
                                        w = base + 1
                                        while w < end:
                                            lw = v_last[w]
                                            if lw < stale:
                                                stale = lw
                                                victim = w
                                            w += 1
                                v_tags[victim] = tag
                                v_ranks[victim] = rank
                                v_last[victim] = v_clock
                                ch = code % nch
                                cf = ch_free[ch]
                                ds = start if start > cf else cf
                                ch_free[ch] = ds + d_cpt
                                done = ds + d_lat
                                v_miss += 1
                                if ins is not None:
                                    ins.dram_fetch(
                                        pu_of[g], sid_of[g], 0, code,
                                        ts=start, dur=done - start, channel=ch,
                                    )
                        if trace is not None:
                            trace.cycle = start
                            if rank < v_cut:
                                v_serve(rank, "high")
                            elif hit:
                                v_serve(rank, "low_hit")
                            else:
                                v_fill(tag)
                                v_serve(rank, "miss")
                        v_wait += done - tg
                        tg = done
                    else:  # END: the step's trailing compute
                        pre = ~code
                        tg += pre
                        compute_cycles += pre

                    if not ops:
                        if not stacks[g]:
                            pu_busy[pu_of[g]] -= 1
                        if ins is not None:
                            ins.step_finished(pu_of[g], sid_of[g], tg)
                    slot_time[g] = tg
                    if tg < horizon:
                        ring[tg & mask].append(g)
                    else:
                        far.setdefault(tg, []).append(g)
                bucket.clear()
                now += 1
                if far:  # cycle now + R - 1 enters the window, in this bucket
                    bucket.extend(far.pop(now + mask, ()))
        finally:
            # Folded in on every exit path, so app state is exact even on
            # raise, as if it were bumped per candidate.
            app.candidates_checked += candidates_checked

        app.finalize(graph)
        stats = SimStats(
            cycles=max(slot_time, default=0),
            candidates_checked=candidates_checked,
            embeddings_accepted=embeddings_accepted,
            roots_dispatched=roots_dispatched,
            steals=steals,
            steal_attempts=steal_attempts,
            vertex_high_hits=v_hi,
            vertex_low_hits=v_lo,
            vertex_misses=v_miss,
            edge_high_hits=e_hi,
            edge_low_hits=e_lo,
            edge_misses=e_miss,
            compute_cycles=compute_cycles,
            vertex_wait_cycles=v_wait,
            edge_wait_cycles=e_wait,
            pu_finish_cycles=[
                max(slot_time[p * S:(p + 1) * S], default=0) for p in range(P)
            ],
            pu_busy_cycles=[
                sum(slot_time[p * S:(p + 1) * S])
                - sum(slot_gap[p * S:(p + 1) * S])
                for p in range(P)
            ],
        )
        self.stats = stats

        self.hierarchy = LAMHReport(
            stats, v_evict[::ways], None if shared else e_evict[::ways]
        )

        if ins is not None:
            ins.finish_run(stats, sum(pu_busy), self.hierarchy)
        return SimResult(stats=stats, mining=app.result(), config=cfg)
