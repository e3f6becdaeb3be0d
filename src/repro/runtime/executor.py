"""The job executor: one ``run`` over ``JobSpec`` lists, inline or on workers.

One call — :meth:`Executor.run` — takes an ordered list of
:class:`~repro.runtime.spec.JobSpec` and returns the matching ordered list
of :class:`~repro.runtime.spec.JobResult`:

* ``jobs=1`` (the default; overridable per-process via the ``GRAMER_JOBS``
  environment variable) with no ledger runs inline, as do hooked runs
  (``instrument=``, ``access_traces=``), whose hooks hold live objects;
  ``jobs=1`` with a ledger runs one
  :class:`~repro.runtime.worker.SweepWorker` in this process, and
  ``jobs=N`` forks ``min(N, pending)`` of them
  (:func:`~repro.runtime.worker.run_fleet`) over the caller's ledger or a
  temporary one.  Results are reported **in spec order** at any width;
* a sweep with a ledger starts at its **run boundary** (the ledger's
  length now): cells recorded ``ok`` before it whose artifacts still
  verify come back as those cached results, marked ``"resumed": True``
  in ``detail``, and earlier failures re-run, so ``--resume`` is
  ``--ledger`` on a ledger with history (docs/resilience.md §2);
* a job that raises is captured as a failed ``JobResult`` instead of
  aborting the sweep — one poisoned cell never kills its siblings;
* **transient** failures retry under a
  :class:`~repro.runtime.retry.RetryPolicy` with deterministic seeded
  backoff inside ``run_spec``; a worker that dies, or that the parent
  kills because its cell outlived ``timeout_s`` (``jobs > 1`` only),
  costs that cell one attempt and is replaced.  **Permanent** failures
  fail on the first attempt.  ``JobResult.retries`` counts the failed
  attempts either way;
* a ``KeyboardInterrupt`` shuts down cleanly: claims are released or
  dropped, the ledger is flushed so a later ``--resume`` skips everything
  that completed, and the interrupt propagates to the caller;
* completed ``JobResult``\\ s are memoized in the artifact cache (keyed by
  the spec's content hash); failed results are never cached;
* ``faults`` (or ``$GRAMER_FAULTS``) attaches a chaos
  :class:`~repro.runtime.chaos.FaultPlan`; see ``docs/resilience.md``.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.obs.access import AccessTrace, AccessTraceSet
from repro.obs.hooks import SimInstrument, emit_job_event, emit_job_retry
from repro.obs.log import get_logger
from repro.obs.tracer import Tracer

from .backends import get_backend, graph_digest_for
from .cache import JOB_KIND, ArtifactCache, default_cache
from .chaos import (
    FaultPlan,
    active_fault_plan,
    apply_cache_corruption,
    apply_pre_run_faults,
)
from .ledger import (
    LedgerEntry,
    RunLedger,
    ledger_length,
    load_ledger,
    spec_digest,
)
from .retry import DEFAULT_RETRY, RetryPolicy
from .spec import JobResult, JobSpec, failed_result

__all__ = ["Executor", "run_spec", "resolve_jobs"]

_ENV_JOBS = "GRAMER_JOBS"

ProgressFn = Callable[[JobResult, int, int], None]

_log = get_logger("runtime.executor")


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count: explicit argument, else ``$GRAMER_JOBS``, else 1."""
    if jobs is not None:
        return max(1, int(jobs))
    # gramer: ignore[GRM201] -- process-startup config: worker count shapes
    # scheduling only; results are fingerprint-identical at any width.
    env = os.environ.get(_ENV_JOBS, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            _log.warning(
                "ignoring non-integer %s=%r; running with 1 worker",
                _ENV_JOBS,
                env,
            )
    return 1


def run_spec(
    spec: JobSpec,
    use_cache: bool = True,
    cache: ArtifactCache | None = None,
    instrument: SimInstrument | None = None,
    retry: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    first_attempt: int = 1,
    access_trace: AccessTrace | None = None,
) -> JobResult:
    """Execute one spec: cache lookup → backend run (with retry) → store.

    Never raises for job-level errors; they come back as a failed
    :class:`JobResult`.  Transient failures (see
    :func:`~repro.runtime.retry.classify_error`) are retried in-process
    up to ``retry.max_attempts`` total attempts with deterministic
    backoff; ``first_attempt`` offsets the attempt numbering when a sweep
    worker takes over a cell whose earlier attempts died with their
    worker process.

    With ``instrument`` or ``access_trace`` the cache is bypassed
    entirely — a trace only exists if the simulator actually runs — and
    both are handed to the backend's ``run``; a backend with no hooked
    path runs normally and leaves them empty.  The two channels buffer
    different event shapes and cannot be combined in one run.
    """
    if instrument is not None and access_trace is not None:
        raise ValueError("instrument and access_trace cannot be combined")
    cache = cache if cache is not None else default_cache()
    policy = retry if retry is not None else DEFAULT_RETRY
    plan = faults if faults is not None else active_fault_plan()
    key = spec.cache_key()
    label = spec.label()
    observed = instrument is not None or access_trace is not None
    if use_cache and not observed:
        hit, value = cache.lookup(JOB_KIND, key)
        if hit and isinstance(value, JobResult):
            _log.debug("cache hit %s", label)
            return value.as_cached()
    _log.debug("start %s", label)
    attempt = first_attempt
    total_start = time.perf_counter()
    while True:
        start = time.perf_counter()
        try:
            apply_pre_run_faults(plan, label, attempt)
            result = get_backend(spec.backend).run(
                spec, instrument=instrument, access_trace=access_trace
            )
        except Exception as exc:  # noqa: BLE001 - failure isolation by design
            wall = time.perf_counter() - start
            if policy.should_retry(exc, attempt):
                delay = policy.delay_s(attempt, token=label)
                _log.warning(
                    "transient failure %s attempt %d (%s: %s); "
                    "retrying in %.3fs",
                    label,
                    attempt,
                    type(exc).__name__,
                    exc,
                    delay,
                )
                time.sleep(delay)
                attempt += 1
                continue
            _log.warning(
                "failed %s after %.3fs on attempt %d: %s",
                label,
                wall,
                attempt,
                exc,
            )
            return failed_result(
                spec,
                exc,
                wall_seconds=time.perf_counter() - total_start,
                retries=attempt - 1,
            )
        break
    result = replace(
        result, cache_key=cache.digest(key), retries=attempt - 1
    )
    if use_cache and not observed and result.ok:
        cache.store(JOB_KIND, key, result)
        apply_cache_corruption(plan, cache, JOB_KIND, key, label, attempt)
    _log.debug("finish %s in %.3fs", label, result.wall_seconds)
    return result


def _open_graphs(specs: Sequence[JobSpec]) -> None:
    """Open each spec's graph here, once, so forked workers inherit it.

    A graph that fails to open is left to the worker, whose run reports
    the error as that cell's failed result.
    """
    for spec in specs:
        try:
            graph_digest_for(spec)
        except Exception as exc:  # noqa: BLE001 - the cell reports it
            _log.debug("graph prewarm failed for %s: %s", spec.label(), exc)


def _from_ledger(
    spec: JobSpec, entry: LedgerEntry | None, cache: ArtifactCache | None
) -> JobResult:
    """A cell's recorded outcome, reported without recomputing it.

    A completed cell comes back as its result from ``cache``, marked
    ``"resumed": True`` in ``detail``, so callers read the same payload
    as from a fresh run; this run spent no time on it (``wall_seconds``
    0).  Only a cell with no cached result (no cache, or an entry gone
    since) falls back to the ledger's own record: time, energy and the
    ``resumed`` mark.
    """
    if entry is None or not entry.completed:
        error = entry.error if entry is not None else None
        return failed_result(
            spec, error or "ChildProcessError: no sweep worker finished it"
        )
    if cache is not None:
        hit, value = cache.lookup(JOB_KIND, spec.cache_key())
        if hit and isinstance(value, JobResult):
            return replace(
                value,
                detail={**value.detail, "resumed": True},
                wall_seconds=0.0,
                cached=True,
                retries=entry.retries,
            )
    return JobResult(
        spec=spec,
        system=entry.system or spec.backend,
        ok=True,
        seconds=entry.seconds,
        energy_j=entry.energy_j,
        detail={"resumed": True},
        cached=True,
        retries=entry.retries,
    )


class Executor:
    """Run lists of job specs inline or on claim/lease sweep workers."""

    def __init__(
        self,
        jobs: int | None = None,
        timeout_s: float | None = None,
        use_cache: bool = True,
        cache: ArtifactCache | None = None,
        tracer: Tracer | None = None,
        retry: RetryPolicy | None = None,
        faults: FaultPlan | None = None,
        ledger: RunLedger | None = None,
        lease_s: float = 30.0,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.timeout_s = timeout_s
        self.use_cache = use_cache
        self.cache = cache if cache is not None else default_cache()
        self.tracer = tracer
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self.faults = faults if faults is not None else active_fault_plan()
        self.ledger = ledger
        self.lease_s = lease_s

    def _trace_result(self, result: JobResult) -> None:
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return
        now_us = time.perf_counter() * 1e6
        args: dict[str, object] = {
            "backend": result.spec.backend,
            "app": result.spec.app,
            "graph": result.spec.graph_name,
            "ok": result.ok,
            "retries": result.retries,
        }
        if result.error is not None:
            args["error"] = result.error
        emit_job_event(
            tracer,
            result.spec.label(),
            now_us,
            result.wall_seconds,
            result.cached,
            **args,
        )

    def _trace_retry(self, spec: JobSpec, attempt: int, error: str) -> None:
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return
        emit_job_retry(
            tracer,
            spec.label(),
            time.perf_counter() * 1e6,
            attempt,
            error,
        )

    def run(
        self,
        specs: Sequence[JobSpec],
        progress: ProgressFn | None = None,
        instrument: SimInstrument | None = None,
        access_traces: AccessTraceSet | None = None,
    ) -> list[JobResult]:
        """Execute every spec; result ``i`` always corresponds to spec ``i``.

        With ``instrument``, every spec runs inline (hooks hold live
        object references and cannot cross process boundaries) and the
        cache is bypassed so each job actually simulates.
        ``access_traces`` works the same way: each spec runs inline with
        its own :class:`~repro.obs.access.AccessTrace` opened under the
        spec's label, cache bypassed in both directions.
        """
        if instrument is not None and access_traces is not None:
            raise ValueError(
                "instrument and access_traces cannot be combined"
            )
        total = len(specs)
        results: list[JobResult | None] = [None] * total
        reported = 0

        def note(index: int, result: JobResult, record: bool) -> None:
            """Take a result; ledger it if ``record``; report in spec order."""
            nonlocal reported
            results[index] = result
            if record and self.ledger is not None:
                self.ledger.job_finished(result)
            while reported < total:
                ready = results[reported]
                if ready is None:
                    break
                self._trace_result(ready)
                if progress is not None:
                    progress(ready, reported, total)
                reported += 1

        if self.ledger is not None:
            self.ledger.sweep_started(total)
        hooked = instrument is not None or access_traces is not None
        try:
            if hooked or (self.jobs <= 1 and self.ledger is None):
                for index, spec in enumerate(specs):
                    trace = (
                        access_traces.open(
                            spec.label(),
                            backend=spec.backend,
                            app=spec.app,
                            graph=spec.graph_name,
                            scale=spec.scale,
                        )
                        if access_traces is not None
                        else None
                    )
                    if self.ledger is not None:
                        self.ledger.job_started(spec, 1)
                    result = run_spec(
                        spec,
                        self.use_cache,
                        self.cache,
                        instrument=instrument,
                        retry=self.retry,
                        faults=self.faults,
                        access_trace=trace,
                    )
                    note(index, result, True)
            else:
                self._run_workers(specs, results, note)
        except KeyboardInterrupt:
            # Clean shutdown contract: whatever completed is durably in
            # the ledger; `gramer sweep --resume` picks up from here.
            if self.ledger is not None:
                self.ledger.flush()
            _log.warning("interrupted; ledger flushed, workers stopped")
            raise
        return [r for r in results if r is not None]

    def _run_workers(
        self,
        specs: Sequence[JobSpec],
        results: list[JobResult | None],
        note: Callable[[int, JobResult, bool], None],
    ) -> None:
        """Settle, look up, then run the rest on sweep workers."""
        # Lazy: worker.py imports run_spec from this module.
        from .worker import SweepWorker, run_fleet, settle

        with tempfile.TemporaryDirectory(prefix="gramer-sweep-") as scratch:
            path = (
                self.ledger.path
                if self.ledger is not None
                else Path(scratch) / "ledger.jsonl"
            )
            boundary = ledger_length(path)
            job_cache = self.cache if self.use_cache else None
            verify = self.use_cache and self.cache.use_disk
            settled = settle(
                specs,
                load_ledger(path, boundary),
                self.cache if verify else None,
            )
            pending: list[int] = []
            for index, spec in enumerate(specs):
                entry = settled.get(spec_digest(spec))
                if entry is not None:
                    note(index, _from_ledger(spec, entry, job_cache), False)
                    continue
                if self.use_cache:
                    hit, value = self.cache.lookup(JOB_KIND, spec.cache_key())
                    if hit and isinstance(value, JobResult):
                        note(index, value.as_cached(), True)
                        continue
                pending.append(index)
            if not pending:
                return

            def deliver(position: int, result: JobResult) -> None:
                index = pending[position]
                if self.use_cache and result.ok:
                    self.cache.remember(
                        JOB_KIND, specs[index].cache_key(), result
                    )
                note(index, result, False)

            def report(message: tuple[Any, Any]) -> None:
                if message[0] != "start":
                    position, result = message
                    deliver(position, result)

            worker = SweepWorker(
                [specs[index] for index in pending],
                path,
                f"{path}.claims",
                "w1",
                cache=self.cache,
                lease_s=self.lease_s,
                retry=self.retry,
                faults=self.faults,
                boundary=boundary,
                use_cache=self.use_cache,
                settled={},
            )
            if self.jobs <= 1:
                worker.run(report=report)
            else:
                _open_graphs(worker.specs)
                run_fleet(
                    worker,
                    self.jobs,
                    deliver,
                    timeout_s=self.timeout_s,
                    on_retry=lambda position, attempt, error: (
                        self._trace_retry(
                            specs[pending[position]], attempt, error
                        )
                    ),
                )
            # Cells a worker outside this run finished: the ledger has them.
            missing = [index for index in pending if results[index] is None]
            after = load_ledger(path, boundary).after if missing else {}
            for index in missing:
                spec = specs[index]
                entry = after.get(spec_digest(spec))
                note(index, _from_ledger(spec, entry, job_cache), False)
