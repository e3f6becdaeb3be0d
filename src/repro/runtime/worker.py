"""Sweep workers: claim → run → publish → release, and the local fleet.

Every :class:`~repro.runtime.executor.Executor` run wider than one job,
and every sweep with a run ledger, runs on :class:`SweepWorker`\\ s:
``gramer sweep --jobs N`` forks N of them (:func:`run_fleet`), and
hand-launched ``gramer worker`` processes on a shared filesystem join the
same grid.  They coordinate only through the **claim directory**
(:class:`~repro.runtime.claims.ClaimStore`: who computes which cell now),
the **run ledger** (one JSONL journal every worker appends whole lines
to) and the **artifact cache** (how results reach hand-launched
siblings; a forked worker also hands each result to its parent over a
pipe).

Each worker loops: replay the ledger, try to claim a cell still to run,
re-check it after winning (closing the window between replay and claim),
run it while a heartbeat thread refreshes the lease, append the durable
``finish`` record, release the claim.  With nothing claimable it backs
off with deterministic seeded jitter
(:func:`~repro.runtime.claims.claim_backoff_s`).  What is still to run is
decided against the **run boundary**, the ledger's length when the run
started (docs/resilience.md §2): a cell last recorded ``ok`` before it is
done if its artifact verifies on disk (checked once per worker) or the
run has no cache; a failed or interrupted one re-runs; any outcome after
the boundary is final for the run.

A claimed cell runs at attempt ``1 + its start records since the
boundary``, so a fault scripted for attempt 1 does not fire again in the
worker that takes it over.  A forked worker's death is seen by its
parent, which drops the claim and starts a replacement or, once the
cell's attempts are spent, records the failure.  A hand-launched
worker's claim expires after its lease instead, and a sibling takes it
over (generation + 1) — the paper's work stealing, one level up.
"""

from __future__ import annotations

import gc
import itertools
import multiprocessing
import sys
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from pathlib import Path
from typing import Any, Callable, Sequence, cast

from repro.obs.log import console, get_logger

from .cache import JOB_KIND, ArtifactCache, default_cache
from .chaos import (
    FaultPlan,
    active_fault_plan,
    claim_race_delay_s,
    lease_expiry_stall_s,
)
from .claims import Claim, ClaimStore, claim_backoff_s
from .executor import run_spec
from .ledger import (
    LedgerEntry,
    LedgerState,
    RunLedger,
    ledger_length,
    load_ledger,
    spec_digest,
)
from .retry import DEFAULT_RETRY, RetryPolicy
from .spec import JobResult, JobSpec, failed_result

__all__ = ["SweepWorker", "WorkerSummary", "run_fleet", "settle"]

_log = get_logger("runtime.worker")

#: What a worker reports per cell: ``("start", i)`` before it runs cell
#: ``i`` of its spec list, ``(i, result)`` after the finish record.
Report = Callable[[tuple[Any, Any]], None]


@dataclass
class WorkerSummary:
    """What one worker contributed to a shared sweep."""

    worker: str
    computed: list[str] = field(default_factory=list)  # labels this run
    failed: list[str] = field(default_factory=list)
    takeovers: int = 0
    lost_leases: int = 0
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failed


def settle(
    specs: Sequence[JobSpec],
    state: LedgerState,
    cache: ArtifactCache | None,
) -> dict[str, LedgerEntry]:
    """The cells whose last outcome before the run boundary still holds.

    ``state`` is a ledger read at the boundary.  A cell recorded ``ok``
    holds when its artifact verifies on ``cache``'s disk, or always when
    the run has no cache (``cache=None``: the ledger record is the whole
    result).  A record that no longer holds is announced, and the cell's
    memory-tier copy is evicted: a memory hit must not satisfy the
    re-run without restoring the artifact the check found missing.
    """
    settled: dict[str, LedgerEntry] = {}
    for spec in specs:
        digest = spec_digest(spec)
        entry = state.before.get(digest)
        if entry is None or not entry.completed:
            continue
        key = spec.cache_key()
        if cache is not None and cache.entry_checksum(JOB_KIND, key) is None:
            cache.evict_memory(JOB_KIND, key)
            console(
                f"resume: ledger marks {spec.label()} ok but its cached "
                "artifact is missing or failed verification; re-running"
            )
            continue
        settled[digest] = entry
    return settled


class _Heartbeat:
    """Background lease refresher for the claim a worker holds now.

    One thread per worker run refreshes the held claim every
    ``interval_s``, so a cell costs no thread start or join.  ``hold``
    and ``drop`` bracket each cell; a lock orders them with the refresh,
    so no refresh can re-create a claim after it was dropped and
    released.  A refresh that finds the lease taken over marks the claim
    **lost**, which ``drop`` reports so the worker can ledger the loss.
    A ``suppressed`` claim (the ``lease-expiry`` chaos fault) is never
    refreshed — a straggler that stopped talking without dying.
    """

    def __init__(self, store: ClaimStore, interval_s: float) -> None:
        self._store = store
        self._interval_s = interval_s
        self._lock = threading.Lock()
        self._claim: Claim | None = None
        self._suppressed = False
        self._lost = False
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            with self._lock:
                if self._claim is None or self._suppressed or self._lost:
                    continue
                if not self._store.refresh(self._claim):
                    self._lost = True

    def hold(self, claim: Claim, suppressed: bool = False) -> None:
        with self._lock:
            self._claim, self._suppressed, self._lost = claim, suppressed, False

    def drop(self) -> bool:
        """Stop refreshing the held claim; return whether it was lost."""
        with self._lock:
            self._claim = None
            return self._lost

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


class SweepWorker:
    """One process's share of a claim-coordinated sweep grid.

    ``boundary`` is the run boundary (default: the ledger's length now).
    ``settled`` is the outcome of :func:`settle` when the caller already
    took the cells it holds out of ``specs``; ``None`` settles on first
    use.  ``use_cache=False`` runs every cell with the cache bypassed.
    """

    def __init__(
        self,
        specs: Sequence[JobSpec],
        ledger_path: str | Path,
        claims_root: str | Path,
        worker_id: str,
        cache: ArtifactCache | None = None,
        lease_s: float = 30.0,
        retry: RetryPolicy | None = None,
        faults: FaultPlan | None = None,
        poll_cap_s: float = 1.0,
        boundary: int | None = None,
        use_cache: bool = True,
        settled: dict[str, LedgerEntry] | None = None,
    ) -> None:
        self.specs = list(specs)
        self.ledger_path = Path(ledger_path)
        self.worker_id = worker_id
        self.cache = cache if cache is not None else default_cache()
        self.lease_s = lease_s
        self.heartbeat_s = max(0.05, lease_s / 4.0)
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self.faults = faults if faults is not None else active_fault_plan()
        self.poll_cap_s = poll_cap_s
        self.boundary = (
            ledger_length(self.ledger_path) if boundary is None else boundary
        )
        self.use_cache = use_cache
        self.claims = ClaimStore(claims_root, worker_id, lease_s=lease_s)
        self._cells = {
            spec_digest(spec): (index, spec)
            for index, spec in enumerate(self.specs)
        }
        self._settled = settled

    # -- grid state ---------------------------------------------------------

    def _replay(self) -> tuple[LedgerState, int]:
        """The ledger at the run boundary, and its length before the read."""
        length = ledger_length(self.ledger_path)
        return load_ledger(self.ledger_path, self.boundary), length

    def _open(self, state: LedgerState, digest: str) -> bool:
        """Still to run: not settled before the boundary, no outcome after."""
        if self._settled is None:
            use_disk = self.use_cache and self.cache.use_disk
            self._settled = settle(
                self.specs, state, self.cache if use_disk else None
            )
        return digest not in self._settled and digest not in state.after

    def _attempt(
        self, digest: str, state: LedgerState, length: int
    ) -> int | None:
        """Post-claim double check: the attempt to run the cell at, or
        ``None`` when someone finished it meanwhile.

        Closes the window between ledger replay and claim acquisition —
        this re-check *after* winning the claim is what makes zero
        steady-state double-computes a property, not a probability.  The
        ledger is append-only, so when it has not grown since ``state``
        was read, ``state`` is still exact and is not read again.
        """
        if ledger_length(self.ledger_path) != length:
            state, _ = self._replay()
        if not self._open(state, digest):
            return None
        return 1 + state.starts_after.get(digest, 0)

    # -- one cell -----------------------------------------------------------

    def _release(self, ledger: RunLedger, claim: Claim) -> None:
        if self.claims.release(claim):
            ledger.claim_event(
                claim.digest, claim.label, claim.generation, "released"
            )

    def _run_cell(
        self, ledger: RunLedger, heartbeat: _Heartbeat, claim: Claim,
        index: int, spec: JobSpec, attempt: int, summary: WorkerSummary,
        report: Report | None,
    ) -> None:
        label = spec.label()
        stall_s = lease_expiry_stall_s(self.faults, label)
        heartbeat.hold(claim, suppressed=stall_s > 0)
        try:
            if stall_s > 0:
                _log.warning(
                    "chaos: stalling %s for %.2fs with heartbeat "
                    "suppressed (lease %.2fs)",
                    label,
                    stall_s,
                    self.lease_s,
                )
                time.sleep(stall_s)
            ledger.job_started(spec, attempt=attempt)
            if report is not None:
                report(("start", index))
            result = run_spec(
                spec,
                use_cache=self.use_cache,
                cache=self.cache,
                retry=self.retry,
                faults=self.faults,
                first_attempt=attempt,
            )
            ledger.job_finished(result)
        finally:
            # Also on the way out of an interrupt: a resumed sweep must
            # not wait out this worker's lease.
            if heartbeat.drop():
                summary.lost_leases += 1
                ledger.claim_event(
                    claim.digest, label, claim.generation, "lost"
                )
                _log.warning(
                    "lease lost mid-run for %s; duplicate result is "
                    "byte-identical by the determinism contract",
                    label,
                )
            else:
                self._release(ledger, claim)
        if report is not None:
            report((index, result))
        if result.ok:
            summary.computed.append(label)
        else:
            summary.failed.append(label)

    # -- the loop -----------------------------------------------------------

    def run(
        self,
        report: Report | None = None,
        stop: Any = None,
    ) -> WorkerSummary:
        """Work the grid until every cell is done for this run.

        ``report`` receives the per-cell messages described at
        :data:`Report`; ``stop`` (an event with ``wait``) cuts an idle
        back-off short, so a fleet's idle workers exit as soon as the
        parent has every result.
        """
        start = time.perf_counter()
        summary = WorkerSummary(worker=self.worker_id)
        ledger = RunLedger(self.ledger_path, worker=self.worker_id)
        ledger.sweep_started(
            total=len(self.specs), note=f"worker {self.worker_id}"
        )
        idle_rounds = 0
        try:
            with _Heartbeat(self.claims, self.heartbeat_s) as heartbeat:
                while True:
                    state, length = self._replay()
                    remaining = [
                        (digest, index, spec)
                        for digest, (index, spec) in self._cells.items()
                        if self._open(state, digest)
                    ]
                    if not remaining:
                        break
                    if self._claim_one(
                        ledger, heartbeat, state, length, remaining,
                        summary, report,
                    ):
                        idle_rounds = 0
                        continue
                    # Everything left is claimed by siblings: bounded,
                    # deterministically jittered wait before re-checking.
                    idle_rounds += 1
                    delay = claim_backoff_s(
                        self.worker_id, idle_rounds, cap_s=self.poll_cap_s
                    )
                    if stop is not None:
                        stop.wait(delay)
                    else:
                        time.sleep(delay)
        finally:
            ledger.close()
        summary.wall_seconds = time.perf_counter() - start
        _log.info(
            "worker %s done: %d computed, %d failed, %d takeovers, "
            "%d lost leases in %.2fs",
            self.worker_id,
            len(summary.computed),
            len(summary.failed),
            summary.takeovers,
            summary.lost_leases,
            summary.wall_seconds,
        )
        return summary

    def _claim_one(
        self, ledger: RunLedger, heartbeat: _Heartbeat, state: LedgerState,
        length: int, remaining: list[tuple[str, int, JobSpec]],
        summary: WorkerSummary, report: Report | None,
    ) -> bool:
        """Claim and run the first open cell; whether one ran."""
        for digest, index, spec in remaining:
            label = spec.label()
            delay = claim_race_delay_s(self.faults, label)
            if delay > 0:
                time.sleep(delay)
            claim = self.claims.try_acquire(digest, label)
            if claim is None:
                continue
            attempt = self._attempt(digest, state, length)
            if claim.generation > 1:
                summary.takeovers += 1
                ledger.claim_event(digest, label, claim.generation, "takeover")
            else:
                ledger.claim_event(digest, label, 1, "claimed")
            if attempt is None:
                # Finished elsewhere between replay and claim.
                self._release(ledger, claim)
                continue
            self._run_cell(
                ledger, heartbeat, claim, index, spec, attempt, summary,
                report,
            )
            return True
        return False


# -- the local fleet ---------------------------------------------------------


def _fleet_member(
    worker: SweepWorker, worker_id: str, conn: Connection, stop: Any
) -> None:
    """A forked fleet worker's body: run the grid, report over ``conn``."""
    # The heap inherited from the parent lives as long as this process:
    # keep the cyclic GC from re-walking (and copying) it every collection.
    gc.freeze()
    worker.worker_id = worker_id
    worker.claims = ClaimStore(worker.claims.root, worker_id, worker.lease_s)
    try:
        worker.run(report=conn.send, stop=stop)
    except KeyboardInterrupt:
        pass  # the claim was released on the way out; the parent stops
    finally:
        conn.close()


@dataclass
class _Member:
    process: Any
    worker_id: str
    cell: int | None = None  # index of the cell in flight
    since: float = 0.0
    error: str | None = None  # why the parent killed it


def run_fleet(
    worker: SweepWorker,
    width: int,
    deliver: Callable[[int, JobResult], None],
    timeout_s: float | None = None,
    on_retry: Callable[[int, int, str], None] | None = None,
) -> None:
    """Fork ``width`` copies of ``worker`` and collect their results.

    ``deliver(i, result)`` fires once per cell ``i`` of ``worker.specs``
    as results arrive over the pipes.  A member that dies, or that is
    killed because its cell ran past ``timeout_s``, costs that cell one
    attempt: the parent drops the member's claim at once (no lease
    wait), then starts a replacement while ``worker.retry`` has attempts
    left (``on_retry(i, attempt, error)`` fires), or appends the failed
    ``finish`` record itself once they are spent.  Cells a sibling
    outside the fleet finished are not delivered.

    Members are forked, so they inherit the caller's opened graphs and
    warm caches; the caller must not be running other threads, which a
    fork would copy mid-operation (``Executor`` starts none).
    """
    ctx = multiprocessing.get_context("fork")
    stop = ctx.Event()
    ledger = RunLedger(worker.ledger_path)
    live: dict[Connection, _Member] = {}
    tries = [0] * len(worker.specs)
    undelivered = set(range(len(worker.specs)))
    serial = itertools.count(1)

    def spawn() -> None:
        worker_id = f"w{next(serial)}"
        receiver, sender = ctx.Pipe(duplex=False)
        sys.stdout.flush()  # a child must not re-emit the parent's buffer
        sys.stderr.flush()
        process = ctx.Process(
            target=_fleet_member, args=(worker, worker_id, sender, stop)
        )
        process.start()
        sender.close()
        live[receiver] = _Member(process, worker_id)

    def resolve(index: int, result: JobResult) -> None:
        undelivered.discard(index)
        if not undelivered:
            stop.set()
        deliver(index, result)

    def lose(index: int, member: _Member) -> None:
        spec = worker.specs[index]
        error = member.error or (
            f"ChildProcessError: worker {member.worker_id} exited with "
            f"status {member.process.exitcode}"
        )
        if worker.retry.should_retry(error, tries[index]):
            _log.warning(
                "%s lost on attempt %d (%s); starting a replacement worker",
                spec.label(),
                tries[index],
                error,
            )
            if on_retry is not None:
                on_retry(index, tries[index], error)
        else:
            result = failed_result(spec, error, retries=tries[index] - 1)
            ledger.job_finished(result)  # before the claim goes
            resolve(index, result)
        worker.claims.drop(spec_digest(spec), member.worker_id)
        if undelivered:
            spawn()

    for _ in range(min(width, len(undelivered))):
        spawn()
    try:
        while live:
            busy = [m.since for m in live.values() if m.cell is not None]
            wait_s = (
                max(0.0, min(busy) + timeout_s - time.monotonic())
                if timeout_s is not None and busy
                else None
            )
            for conn in cast(list[Connection], wait(list(live), wait_s)):
                member = live[conn]
                try:
                    message = conn.recv()
                except EOFError:  # the member exited, or was killed below
                    del live[conn]
                    conn.close()
                    member.process.join()
                    if member.cell is not None:
                        lose(member.cell, member)
                    continue
                if message[0] == "start":
                    member.cell = message[1]
                    member.since = time.monotonic()
                    tries[member.cell] += 1
                else:
                    member.cell = None
                    resolve(*message)
            now = time.monotonic()
            for member in live.values():
                if (
                    timeout_s is not None
                    and member.cell is not None
                    and member.error is None
                    and now - member.since > timeout_s
                ):
                    member.error = f"TimeoutError: job exceeded {timeout_s}s"
                    member.process.kill()
    finally:
        for member in live.values():
            member.process.kill()
            member.process.join()
            if member.cell is not None:
                spec = worker.specs[member.cell]
                worker.claims.drop(spec_digest(spec), member.worker_id)
        ledger.close()
