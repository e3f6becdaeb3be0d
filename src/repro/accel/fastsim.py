"""Fast-path GRAMER engine: the reference model with the interpreter cost cut.

:class:`FastGramerSimulator` executes the *same* discrete-event model as
:class:`~repro.accel.sim.GramerSimulator` — same functional/timing phase
split, same global time-ordered event loop, same LAMH/DRAM state machines —
but restructured for throughput:

* **Flattened memory state.**  Cache sets live in flat tag/rank/last-access
  arrays indexed by ``set * ways + way`` (tag ``-1`` = invalid) instead of
  per-line objects; hit scans, fills and the Equation-2 victim search are
  inlined over those arrays.  Sizing is not re-derived: the reference
  :func:`~repro.memory.hierarchy.build_hierarchy` runs once and the flat
  model is extracted from the objects it built, so cutoff/num_sets/τ
  validation rules are shared by construction.
* **Batched slot state.**  Per-slot clocks, busy counters and recorded-op
  queues are parallel arrays indexed by global slot id; partition and DRAM
  channel queues are plain integer arrays updated with branchless max
  arithmetic.
* **Shared functional step.**  Each step is the reference's own
  :func:`~repro.mining.engine.slot_step` over the CSR arrays as Python
  lists (numpy scalar indexing dominates the reference profile); per-slot
  recorder callbacks append the op records straight into the slot's
  queue.  Work stealing is the reference's
  :class:`~repro.accel.scheduler.Stealer`.
* **Calendar event queue.**  The reference pops one pending event per slot
  in ``(time, seq)`` order, ``seq`` being push order.  FIFO buckets indexed
  by cycle (Brown, CACM 1988) give the same order with list appends; events
  past the ring's window wait aside and become their bucket before any
  later push for that cycle can land in it.

Equivalence contract
--------------------
For every graph/config/application, ``FastGramerSimulator(...).run(app)``
must produce byte-identical ``SimStats.as_dict()`` and mining results to
the reference engine.  This is enforced by the differential harness
(``tests/differential/``), the golden fixtures
(``tests/experiments/golden/``) and the Table III determinism test.  The
functional step and the steal discipline are shared code; only the
timing (issue port, partitions, caches, DRAM, event order) is written
twice, and a change to the reference's timing must be mirrored here (the
suites catch it if it is not).

Observability hooks are *not* supported: instrumented runs observe
per-event state that this engine deliberately does not materialise, so
:func:`~repro.accel.sim.make_simulator` forces the reference engine
whenever an instrument is attached.
"""

from __future__ import annotations

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
    _STEAL_RETRY_CYCLES,
    AncestorBufferOverflowError,
    SimResult,
    resolve_vertex_rank,
)
from .stats import SimStats

__all__ = ["FastGramerSimulator"]

# Calendar-queue window in cycles, a power of two; later events go to `far`.
_RING = 512


class FastGramerSimulator:
    """Drop-in fast engine for :class:`~repro.accel.sim.GramerSimulator`.

    Same constructor contract as the reference engine except that
    ``instrument`` must be ``None`` (use the factory, which routes
    instrumented runs to the reference engine).
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
                "the fast engine does not support observability hooks; "
                "use make_simulator(), which forces engine='reference' "
                "for instrumented runs"
            )
        self.graph = graph
        self.config = config if config is not None else GramerConfig()
        self.vertex_rank = resolve_vertex_rank(graph, vertex_rank, use_on1_ranks)
        self.stats = SimStats()

    # The run loop is one deliberately monolithic function: every helper
    # call it avoids is ~100ns × tens of millions of events.  Each block is
    # annotated with the reference-model code it transcribes.
    def run(self, app: Application) -> SimResult:  # noqa: C901
        """Execute ``app`` to completion; returns stats + mining results."""
        graph, cfg = self.graph, self.config

        # -- sizing: run the reference builders once, extract a flat model --
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
                f"fast engine cannot replicate policy {policy.name!r}"
            )

        ways = vcache.ways
        v_sets = vcache.num_sets
        v_line = vcache.line_size
        v_tags = [-1] * (v_sets * ways)
        v_ranks = [0] * (v_sets * ways)
        v_last = [0] * (v_sets * ways)
        v_clock = 0  # the shared cache's clock in the uniform baseline
        if shared:
            e_tags, e_ranks, e_last = v_tags, v_ranks, v_last
            e_sets, e_line = v_sets, v_line
        else:
            e_sets = ecache.num_sets
            e_line = ecache.line_size
            e_tags = [-1] * (e_sets * ways)
            e_ranks = [0] * (e_sets * ways)
            e_last = [0] * (e_sets * ways)
        e_clock = 0
        e_addr_off = e_side.address_offset

        # Python lists: numpy scalar indexing is the reference profile's
        # single largest line item, and values are identical post-tolist().
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

        # -- batched slot / PU state (global slot id g = p * S + s) --------
        # Busy cycles are derived, not accumulated: a slot is busy from t=0
        # to its final time except for idle gaps (dispatch arrival waits,
        # steal-retry backoffs), which are rare and recorded where they
        # occur.  busy[g] == final_time[g] - gap[g] exactly matches the
        # reference's per-event (after - before) sums.
        slot_time = [0] * G
        slot_gap = [0] * G
        stacks: list[list[Frame]] = [[] for _ in range(G)]
        # A slot's recorded ops of the step in flight, filled through the
        # slot's own recorder callbacks: memory ops carry no compute (the
        # issue cycles precede the first op, the rest trails in the END op).
        slot_ops: list[list[tuple[int, int, int, int]]] = [[] for _ in range(G)]
        rec_vertex = [
            (lambda vid, _a=ops.append: _a((0, vid, 0, 0))) for ops in slot_ops
        ]
        rec_edge = [
            (lambda index, src, _a=ops.append: _a((1, index, src, 0)))
            for ops in slot_ops
        ]
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
        # it.  So buckets pop in the reference's (t, seq) order; seeds are
        # every slot at t=0, row-major.
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
                # A list iterator visits appends: a slot pushed back at `now`
                # runs after all already queued, losing every tie on seq.
                for g in bucket:
                    tg = slot_time[g]
                    if now > tg:
                        slot_gap[g] += now - tg
                        tg = now
                    ops = slot_ops[g]
                    if ops:
                        kind, address, src, pre = ops.pop()
                        tg += pre
                    else:
                        # -- slot needs a new step (reference: idle branch +
                        # _record_step) --------------------------------------
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
                            elif stealing and pu_busy[p] > 0:
                                steal_attempts += 1
                                if stealers[p].steal(sid_of[g]) >= 0:
                                    steals += 1
                                    pu_busy[p] += 1
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

                        # -- functional phase: _record_step ------------------
                        candidate, column = slot_step(
                            offsets, neighbors, stack[-1], clique_only,
                            scan_probe, rec_vertex[g], rec_edge[g],
                        )
                        # compute_cycles is the order-independent sum of all
                        # compute ever serviced, so it is accumulated here
                        # (once per step) rather than per event.
                        if candidate is None:
                            stack.pop()
                            pre = 1  # traceback: dequeue the ancestor record
                            compute_cycles += issue_cycles + 1
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
                        if pre or not ops:
                            ops.append((2, 0, 0, pre))  # _RecordingMemory.finish
                        # Consumed back-to-front with list.pop(): cheaper
                        # than cursor bookkeeping, and `ops` doubles as the
                        # "step in flight" flag once reversed.
                        ops.reverse()
                        kind, address, src, pre = ops.pop()
                        # The step's first op claims the PU issue port, and
                        # the issue compute precedes it (the continuation
                        # ops above just did `tg += pre`).
                        nf = pu_free[p]
                        start = tg if tg > nf else nf
                        pu_free[p] = start + issue_cycles
                        tg = start + issue_cycles + pre

                    # -- timing phase: inlined _service_op -------------------
                    if kind == 0:
                        pi = address % nparts
                        pf = part_free[pi]
                        start = tg if tg > pf else pf
                        part_free[pi] = start + 1
                        rank = vrank[address]
                        if rank < v_cut:
                            done = start + spm_lat
                            v_hi += 1
                        else:
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
                                ch = address % nch
                                cf = ch_free[ch]
                                ds = start if start > cf else cf
                                ch_free[ch] = ds + d_cpt
                                done = ds + d_lat
                                v_miss += 1
                        v_wait += done - tg
                        tg = done
                    elif kind == 1:
                        pi = (address // part_line) % nparts
                        pf = part_free[pi]
                        start = tg if tg > pf else pf
                        part_free[pi] = start + 1
                        rank = erank[address] if erank is not None else vrank[src]
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
                        e_wait += done - tg
                        tg = done
                    # kind == 2 (_OP_END): trailing compute only.

                    if not ops and not stacks[g]:
                        pu_busy[pu_of[g]] -= 1
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
            # The reference engine bumps this per candidate; fold the batch
            # in on every exit path so app state matches even on raise.
            app.candidates_checked += candidates_checked

        app.finalize(graph)
        stats = SimStats()
        stats.cycles = max(slot_time, default=0)
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
        stats.vertex_wait_cycles = v_wait
        stats.edge_wait_cycles = e_wait
        stats.pu_finish_cycles = [
            max(slot_time[p * S:(p + 1) * S], default=0) for p in range(P)
        ]
        stats.pu_busy_cycles = [
            sum(slot_time[p * S:(p + 1) * S])
            - sum(slot_gap[p * S:(p + 1) * S])
            for p in range(P)
        ]
        self.stats = stats
        return SimResult(stats=stats, mining=app.result(), config=cfg)
