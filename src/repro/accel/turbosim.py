"""Turbo GRAMER engine: exact mining, decoupled statistical timing model.

The exact engine (:class:`repro.accel.sim.GramerSimulator`) is bound to
one sequential global event order, because bit-identity chains the
functional mining pass and the timing model to it (docs/architecture.md
§4).  :class:`TurboGramerSimulator` breaks that chain:

* **Functional pass — exact.**  The mining computation runs in *virtual
  step order*: a round-robin sweep over all slots where every busy slot
  executes one extension step per round, using the same root-dispatch
  queues, the same :class:`~repro.accel.scheduler.Stealer`, and the same
  ancestor-buffer depth check as the exact engine.  Mining state
  transitions are the exact engine's own (every step is
  :func:`~repro.mining.engine.slot_step`, timed through recorder
  callbacks), and every counted quantity
  that is schedule-invariant — embedding counts, pattern sets,
  ``candidates_checked``, ``roots_dispatched`` — is therefore byte-identical
  to the exact engine.  ``AncestorBufferOverflowError`` is likewise
  exact whenever overflow is schedule-independent (always when work
  stealing is off; see docs/turbo.md for the stealing caveat).
* **Timing pass — decoupled and batched.**  Each access is classified
  against the LAMH rank cutoffs as it is recorded; high-priority
  (scratchpad) traffic is accounted in bulk — fixed latency, closed-form
  waits — and never materialised.  Only the low-priority stream is kept:
  the recorded (kind, address, rank, issue-time, slot) tuples are sorted
  once with ``numpy.argsort`` into a canonical global interleave and
  replayed through the flat set-associative cache + DRAM-channel model,
  with a per-slot time correction folding miss penalties back into slot
  clocks.  Busy cycles are gap-based exactly as in the exact engine
  (``busy = final - gap``), and per-PU finish/busy roll-ups are numpy
  reductions over the per-slot arrays.

Because slot clocks advance without global arbitration, issue-port and
partition queueing are *not* resolved event-exactly, the cache sees an
approximate (not the exact engine's) service order, and steal/retry timing is
virtual.  Timing-facing ``SimStats`` fields — ``cycles``, hit/miss splits,
waits, ``steals``/``steal_attempts``, per-PU arrays — are therefore close
but not byte-equal to the exact engine's.

Tolerance contract
------------------
``tests/differential/tolerance.py`` declares the contract: mining counts
and exception types must match the exact engine; every timing and
energy field must fall within a per-field relative/absolute band.  The
hypothesis corpus and the Table III tiny grid (plus the golden envelope
fixtures under ``tests/experiments/golden/turbo/``) enforce it.

Observability hooks are not supported (there is no per-event state to
observe); :func:`~repro.accel.sim.make_simulator` gives any run with an
instrument or access trace the exact engine.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.graph.csr import CSRGraph
from repro.memory.dram import DRAMModel
from repro.memory.hierarchy import build_hierarchy
from repro.memory.policies import LocalityPreservedPolicy, LRUPolicy
from repro.mining.apps.base import Application
from repro.mining.engine import Frame, slot_step

from .config import GramerConfig
from .frontend import dispatch_roots
from .scheduler import Stealer
from .sim import (
    AncestorBufferOverflowError,
    SimResult,
    resolve_vertex_rank,
)
from .stats import SimStats

__all__ = ["TurboGramerSimulator"]


class TurboGramerSimulator:
    """Decoupled-timing engine; same constructor contract as the exact one.

    ``instrument`` must be ``None`` (use the factory, which routes
    instrumented runs to the exact engine).
    """

    def __init__(
        self,
        graph: CSRGraph,
        config: GramerConfig | None = None,
        vertex_rank: np.ndarray | None = None,
        use_on1_ranks: bool = True,
        instrument: object | None = None,
    ) -> None:
        if instrument is not None:
            raise ValueError(
                "the turbo engine does not support observability hooks; "
                "use make_simulator(), which gives instrumented runs the "
                "exact engine"
            )
        self.graph = graph
        self.config = config if config is not None else GramerConfig()
        self.vertex_rank = resolve_vertex_rank(graph, vertex_rank, use_on1_ranks)
        self.stats = SimStats()
        #: Timing-model internals of the last run (span/demand/stretch,
        #: replay correction totals) — diagnostics for the tolerance suite.
        self.timing_debug: dict[str, float] = {}

    # Like the exact engine's loop, the functional sweep is deliberately
    # monolithic: the per-access work below is the entire sequential cost
    # of a turbo run, so every avoided call is throughput.
    def run(self, app: Application) -> SimResult:  # noqa: C901
        """Execute ``app`` to completion; returns stats + mining results."""
        graph, cfg = self.graph, self.config

        # -- sizing: run the object-model builders once, extract a flat model
        # (identical extraction to the exact engine, so cutoff/num_sets/tau
        # validation rules stay shared by construction).
        hierarchy = build_hierarchy(
            graph,
            total_entries=cfg.onchip_entries,
            vertex_rank=self.vertex_rank,
            tau=cfg.tau,
            low_policy=cfg.low_policy,
            lam=cfg.lam,
            ways=cfg.cache_ways,
            vertex_line=cfg.vertex_line_entries,
            edge_line=cfg.edge_line_entries,
        )
        # Instantiated purely so DRAM parameter validation stays shared.
        DRAMModel(
            latency_cycles=cfg.dram_latency,
            channels=cfg.dram_channels,
            cycles_per_transfer=cfg.dram_cycles_per_transfer,
        )
        v_side = hierarchy.vertex_side
        e_side = hierarchy.edge_side
        v_cut = v_side.scratchpad.cutoff
        e_cut = e_side.scratchpad.cutoff
        vcache = v_side.low_cache
        ecache = e_side.low_cache
        shared = vcache is ecache  # uniform-LRU baseline: one cache, offset edges

        policy = vcache.policy
        if isinstance(policy, LocalityPreservedPolicy):
            locality = True
            lam = policy.lam
            rank_scale = policy.rank_scale
        elif isinstance(policy, LRUPolicy):
            locality = False
            lam = rank_scale = 0.0
        else:  # pragma: no cover - build_hierarchy only emits the two above
            raise TypeError(
                f"turbo engine cannot replicate policy {policy.name!r}"
            )

        ways = vcache.ways
        v_sets = vcache.num_sets
        v_line = vcache.line_size
        if shared:
            e_sets, e_line = v_sets, v_line
        else:
            e_sets = ecache.num_sets
            e_line = ecache.line_size
        e_addr_off = e_side.address_offset

        vrank = self.vertex_rank.tolist()
        erank = (
            hierarchy.edge_rank.tolist()
            if hierarchy.edge_rank is not None
            else None
        )
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

        # -- application + root dispatch (shared with the reference) -------
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

        # -- slot state (global slot id g = p * S + s) ---------------------
        # vt[g] is the slot's *virtual clock*: compute + nominal access
        # latencies (scratchpad for high, cache-hit for low).  The replay
        # pass later folds per-slot miss penalties back in; busy cycles are
        # gap-based like the exact engine's (busy = final - gap).
        vt = [0] * G
        gap = [0] * G
        stacks: list[list[Frame]] = [[] for _ in range(G)]
        pu_busy = [0] * P
        stealers = [
            Stealer(p, stacks[p * S:(p + 1) * S], random_steal) for p in range(P)
        ]
        sbufs = [stealer.buffer for stealer in stealers]
        pu_of = [g // S for g in range(G)]
        sid_of = [g % S for g in range(G)]
        # Partition demand (1 request/cycle each) is counted, not queued:
        # virtual clocks advance out of order across slots, so running the
        # reference's max(time, free)+1 arbitration against them over-
        # serialises laggard slots.  Instead the busiest partition's count
        # is a lower bound on the real makespan, and the virtual timeline
        # is uniformly stretched to it before the replay pass — which also
        # keeps DRAM misses from piling into unrealistically deep channel
        # queues at compressed virtual times.
        part_count = [0] * nparts

        # -- stats accumulators --------------------------------------------
        candidates_checked = 0
        embeddings_accepted = 0
        roots_dispatched = 0
        steals = 0
        steal_attempts = 0
        v_hi = e_hi = 0
        compute_cycles = 0

        # The low-priority stream: everything the batched timing pass needs
        # about an access that may touch the cache/DRAM, as (kind, address,
        # rank, issue time, slot).  High accesses are accounted in bulk and
        # never stored.
        low: list[tuple[int, int, int, int, int]] = []
        low_append = low.append

        # The recorder callbacks time each access of the step in flight on
        # slot g's virtual clock tg: high-priority accesses cost the
        # scratchpad latency and are only counted, low-priority ones join
        # the stream at their issue time and cost a nominal cache hit.
        g = tg = 0

        def t_vertex(member: int) -> None:
            nonlocal tg, v_hi
            rank = vrank[member]
            part_count[member % nparts] += 1
            if rank < v_cut:
                v_hi += 1
                tg += spm_lat
            else:
                low_append((0, member, rank, tg, g))
                tg += hit_lat

        def t_edge(index: int, src: int) -> None:
            nonlocal tg, e_hi
            rank = erank[index] if erank is not None else vrank[src]
            part_count[(index // part_line) % nparts] += 1
            if rank < e_cut:
                e_hi += 1
                tg += spm_lat
            else:
                low_append((1, index, rank, tg, g))
                tg += hit_lat

        # -- functional pass: virtual step order ---------------------------
        # Round-robin over runnable slots; each busy slot runs exactly one
        # extension step per round.  Ascending-g sweep order makes the
        # first round's root assignment identical to the reference's
        # seeded heap order; afterwards only the schedule (not the mined
        # set) diverges.  A slot leaves the runnable list only when it can
        # never acquire work again (queue drained and stealing impossible).
        runnable = list(range(G))
        try:
            while runnable:
                still = []
                keep = still.append
                for g in runnable:
                    p = pu_of[g]
                    stack = stacks[g]
                    tg = vt[g]
                    if not stack:
                        q = dqueues[p]
                        if q:
                            root, arrival = q.popleft()
                            if arrival > tg:
                                gap[g] += arrival - tg
                                tg = arrival
                            stack.append(Frame((root,), (0,)))
                            roots_dispatched += 1
                            pu_busy[p] += 1
                            sbufs[p].push(sid_of[g])
                        elif stealing and pu_busy[p] > 0:
                            steal_attempts += 1
                            # The reference's steal discipline and LFSR
                            # stream, driven by rounds instead of the
                            # 32-cycle retry clock.
                            vic = stealers[p].steal(sid_of[g])
                            if vic >= 0:
                                steals += 1
                                pu_busy[p] += 1
                                # The thief idled while parked: jump its
                                # clock to the victim's (the reference
                                # thief resumes at current global time)
                                # and book the jump as an idle gap.
                                tv = vt[p * S + vic]
                                if tv > tg:
                                    gap[g] += tv - tg
                                    tg = tv
                            else:
                                keep(g)
                                continue
                        else:
                            # Queue drained; stealing can never hand this
                            # slot work (off, or the whole PU is idle and
                            # steals are intra-PU) — retire it.
                            continue

                    # -- one functional step: the reference's slot_step,
                    # timed by the recorder callbacks above ----------------
                    tg += issue_cycles  # the issue compute precedes any op
                    candidate, column = slot_step(
                        offsets, neighbors, stack[-1], clique_only,
                        scan_probe, t_vertex, t_edge,
                    )
                    if candidate is None:
                        stack.pop()
                        tg += 1  # traceback: dequeue the ancestor record
                        compute_cycles += issue_cycles + 1
                        if not stack:
                            pu_busy[p] -= 1
                    else:
                        candidates_checked += 1
                        pre = check_cycles
                        compute_cycles += issue_cycles + check_cycles
                        if column:
                            frame = stack[-1]
                            new_vertices = frame.vertices + (candidate,)
                            new_columns = frame.columns + (column,)
                            if app_filter(graph, new_vertices, new_columns):
                                app_process(graph, new_vertices, new_columns)
                                pre += process_cycles
                                compute_cycles += process_cycles
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
                        tg += pre  # trailing compute (_OP_END)
                    vt[g] = tg
                    keep(g)
                runnable = still
        finally:
            # Folded in on every exit path, so app state is exact even on
            # raise, as if it were bumped per candidate.
            app.candidates_checked += candidates_checked

        app.finalize(graph)

        # -- timing pass: batched replay of the low-priority stream --------
        # Cache behaviour depends only on the canonical access ORDER (the
        # policies score by access counter, not wall time), so the replay
        # splits in two: first a cache pass over the sorted low-priority
        # stream classifies every op hit/miss, then the makespan stretch
        # is computed from BOTH saturation sources — the busiest partition
        # serves one request per cycle and the busiest DRAM channel is
        # occupied dram_cycles_per_transfer per miss, so each count
        # lower-bounds the makespan — and a miss-only queue pass runs the
        # channel model in the stretched time domain (where occupancy now
        # fits, keeping queues bounded).  delta[g] accumulates each slot's
        # miss penalties beyond the nominal hit latency in vt[g].
        vt_arr = np.asarray(vt, dtype=np.float64)
        span = float(vt_arr.max(initial=0.0))
        part_demand = float(max(part_count, default=0))
        v_lo = v_miss = 0
        e_lo = e_miss = 0
        v_wait_low = e_wait_low = 0
        delta = [0] * G
        miss_g: list[int] = []
        miss_ch: list[int] = []
        miss_t: list[int] = []
        miss_side: list[int] = []  # 0 = vertex, 1 = edge
        ch_count = [0] * nch
        n_low = len(low)
        if n_low:
            records = np.array(low, dtype=np.int64)
            records = records[np.argsort(records[:, 3], kind="stable")]
            rk, ra, rr, rt, rg = records.T.tolist()

            v_tags = [-1] * (v_sets * ways)
            v_ranks = [0] * (v_sets * ways)
            v_last = [0] * (v_sets * ways)
            if shared:
                e_tags, e_ranks, e_last = v_tags, v_ranks, v_last
            else:
                e_tags = [-1] * (e_sets * ways)
                e_ranks = [0] * (e_sets * ways)
                e_last = [0] * (e_sets * ways)
            v_clock = e_clock = 0

            # Cache pass: order-only hit/miss classification; misses are
            # recorded (slot, channel, canonical time, side) for the
            # queue pass once the final stretch is known.
            for i in range(n_low):
                address = ra[i]
                g = rg[i]
                if rk[i] == 0:
                    v_clock += 1
                    tag = address // v_line
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
                        v_lo += 1
                        v_wait_low += hit_lat
                    else:
                        victim = -1
                        w = base
                        while w < end:
                            if v_tags[w] == -1:
                                victim = w
                                break
                            w += 1
                        if victim < 0:
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
                        v_ranks[victim] = rr[i]
                        v_last[victim] = v_clock
                        ch = address % nch
                        ch_count[ch] += 1
                        v_miss += 1
                        miss_g.append(g)
                        miss_ch.append(ch)
                        miss_t.append(rt[i])
                        miss_side.append(0)
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
                        e_lo += 1
                        e_wait_low += hit_lat
                    else:
                        victim = -1
                        w = base
                        while w < end:
                            if e_tags[w] == -1:
                                victim = w
                                break
                            w += 1
                        if victim < 0:
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
                        e_ranks[victim] = rr[i]
                        e_last[victim] = clk
                        # DRAM channels key on the raw edge index.
                        ch = address % nch
                        ch_count[ch] += 1
                        e_miss += 1
                        miss_g.append(g)
                        miss_ch.append(ch)
                        miss_t.append(rt[i])
                        miss_side.append(1)

        # Makespan floors: one partition request per cycle, one channel
        # transfer per dram_cycles_per_transfer.  Stretch the virtual
        # timeline to the larger floor so neither resource is asked to
        # serve above capacity.
        ch_demand = float(max(ch_count, default=0) * d_cpt)
        demand = part_demand if part_demand > ch_demand else ch_demand
        stretch = demand / span if span > 0 and demand > span else 1.0
        if stretch != 1.0:
            vt_arr = vt_arr * stretch

        # Queue pass: a closed-loop event simulation over misses only.
        # Each slot has at most one outstanding miss (the reference
        # stalls the slot until the line returns), so a slot's later
        # misses shift by its accumulated stall and channel queue depth
        # stays bounded by the live slot count — processing in true
        # arrival order is what keeps a saturated channel from growing
        # an unbounded queue, which an open-loop replay does.
        if miss_g:
            per_slot: dict[int, list[int]] = {}
            for j in range(len(miss_g)):
                per_slot.setdefault(miss_g[j], []).append(j)
            ch_free = [0] * nch
            heap: list[tuple[int, int, int]] = []
            for g, idxs in per_slot.items():
                heapq.heappush(heap, (int(miss_t[idxs[0]] * stretch), g, 0))
            while heap:
                arr, g, pos = heapq.heappop(heap)
                idxs = per_slot[g]
                j = idxs[pos]
                ch = miss_ch[j]
                cf = ch_free[ch]
                ds = arr if arr > cf else cf
                ch_free[ch] = ds + d_cpt
                lat = ds - arr + d_lat  # channel queue + DRAM latency
                if miss_side[j] == 0:
                    v_wait_low += lat
                else:
                    e_wait_low += lat
                delta[g] += lat - hit_lat
                pos += 1
                if pos < len(idxs):
                    arrival = int(miss_t[idxs[pos]] * stretch) + delta[g]
                    heapq.heappush(heap, (arrival, g, pos))

        # -- vectorised roll-up --------------------------------------------
        # Slot finish times, gap-based busy cycles and the per-PU arrays
        # are numpy reductions over the per-slot state; the energy model
        # (repro.accel.energy.gramer_energy) consumes these aggregates.
        # The stretch's extra time is partition-queue waiting; the
        # reference books queue waits into the per-side wait fields, so
        # distribute it across vertex/edge accesses by request share.
        #
        # Per-slot finish is a roofline: either the slot is bandwidth
        # bound (partition saturation — stretched virtual time; its miss
        # latencies hide under the queueing) or latency bound (serial
        # miss penalties on the nominal timeline), whichever is later.
        # Summing both would double-charge overlapped stall time.
        vt_nom = np.asarray(vt, dtype=np.int64)
        final = np.maximum(
            vt_arr.astype(np.int64),
            vt_nom + np.asarray(delta, dtype=np.int64),
        )
        gaps = np.asarray(gap, dtype=np.int64)
        queue_wait = (stretch - 1.0) * float(np.asarray(vt, np.float64).sum())
        v_n = v_hi + v_lo + v_miss
        e_n = e_hi + e_lo + e_miss
        n_req = v_n + e_n
        v_pw = int(queue_wait * v_n / n_req) if n_req else 0
        e_pw = int(queue_wait * e_n / n_req) if n_req else 0
        self.timing_debug = {
            "span": span,
            "demand": demand,
            "part_demand": part_demand,
            "ch_demand": ch_demand,
            "stretch": stretch,
            "queue_wait": queue_wait,
            "delta_sum": float(sum(delta)),
            "delta_max": float(max(delta, default=0)),
            "low_ops": float(n_low),
        }
        stats = SimStats()
        stats.cycles = int(final.max(initial=0))
        stats.candidates_checked = candidates_checked
        stats.embeddings_accepted = embeddings_accepted
        stats.roots_dispatched = roots_dispatched
        stats.steals = steals
        stats.steal_attempts = steal_attempts
        stats.vertex_high_hits = v_hi
        stats.vertex_low_hits = v_lo
        stats.vertex_misses = v_miss
        stats.edge_high_hits = e_hi
        stats.edge_low_hits = e_lo
        stats.edge_misses = e_miss
        stats.compute_cycles = compute_cycles
        stats.vertex_wait_cycles = v_hi * spm_lat + v_pw + v_wait_low
        stats.edge_wait_cycles = e_hi * spm_lat + e_pw + e_wait_low
        if G:
            per_pu = final.reshape(P, S)
            stats.pu_finish_cycles = [int(x) for x in per_pu.max(axis=1)]
            stats.pu_busy_cycles = [
                int(x)
                for x in per_pu.sum(axis=1) - gaps.reshape(P, S).sum(axis=1)
            ]
        else:  # pragma: no cover - GramerConfig forbids zero PUs/slots
            stats.pu_finish_cycles = []
            stats.pu_busy_cycles = []
        self.stats = stats
        return SimResult(stats=stats, mining=app.result(), config=cfg)
