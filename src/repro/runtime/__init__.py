"""Unified execution runtime: backends, job executor, artifact cache.

Every way of running a mining workload — the CLI, the experiment harness,
``run_all`` sweeps — goes through this layer:

* :class:`~repro.runtime.spec.JobSpec` / :class:`~repro.runtime.spec.JobResult`
  — the declarative unit of work and its complete outcome;
* :mod:`~repro.runtime.backends` — the ``Backend`` registry wrapping the
  software engine, the GRAMER cycle simulator, and the Fractal/RStream
  baseline models behind one ``run(JobSpec) -> JobResult`` interface;
* :class:`~repro.runtime.executor.Executor` — inline runs or forked
  claim/lease sweep workers (:mod:`~repro.runtime.worker`), with per-job
  failure capture, worker replacement, and deterministic ordering;
* :mod:`~repro.runtime.cache` — the content-addressed artifact cache
  memoizing proxy graphs, ON1 rankings, and completed job results, with
  checksum-verified disk entries and quarantine on corruption;
* :mod:`~repro.runtime.retry` — transient/permanent error classification
  and deterministic seeded backoff;
* :mod:`~repro.runtime.ledger` — the crash-safe JSONL run journal behind
  ``gramer sweep --resume``, versioned headers, and the claim audit trail;
* :mod:`~repro.runtime.atomicio` — the blessed atomic-write primitives
  (tmp+fsync+rename publish, ``O_EXCL`` claim creation) every durable
  file in the runtime goes through (``gramer check`` GRM802 enforces it);
* :mod:`~repro.runtime.claims` / :mod:`~repro.runtime.worker` — the
  distributed sweep layer: lease-based cell claims with expired-lease
  takeover, and the ``gramer worker`` loop that shards one grid across
  N coordinating processes;
* :mod:`~repro.runtime.manifest` — Merkle-manifested sweep artifacts:
  seal a completed grid into one verifiable JSON commitment, verify
  completeness and integrity later by exact spec_digest;
* :mod:`~repro.runtime.chaos` — the fault-injection harness proving the
  recovery paths (``GRAMER_FAULTS``, ``Executor(faults=...)``).

See ``docs/resilience.md`` for the recovery model end to end.
"""

from .atomicio import (
    atomic_write_bytes,
    atomic_write_text,
    exclusive_create_text,
    fsync_directory,
)
from .backends import (
    Backend,
    backend_names,
    build_app,
    cached_vertex_rank,
    experiment_config,
    get_backend,
    register_backend,
)
from .cache import (
    JOB_KIND,
    ArtifactCache,
    default_cache,
    reset_default_cache,
    stable_hash,
)
from .chaos import (
    FaultPlan,
    FaultSpec,
    InjectedFaultError,
    claim_race_delay_s,
    lease_expiry_stall_s,
    parse_fault_plan,
)
from .claims import Claim, ClaimStore, claim_backoff_s
from .executor import Executor, resolve_jobs, run_spec
from .ledger import (
    LEDGER_VERSION,
    ClaimRecord,
    LedgerVersionError,
    RunLedger,
    load_ledger,
    spec_digest,
)
from .manifest import (
    Manifest,
    ManifestError,
    VerifyReport,
    build_manifest,
    load_manifest,
    seal_manifest,
    verify_manifest,
)
from .retry import DEFAULT_RETRY, NO_RETRY, RetryPolicy, classify_error
from .spec import JobResult, JobSpec, failed_result, make_jobspec
from .worker import SweepWorker, WorkerSummary

__all__ = [
    "ArtifactCache",
    "Backend",
    "Claim",
    "ClaimRecord",
    "ClaimStore",
    "DEFAULT_RETRY",
    "Executor",
    "FaultPlan",
    "FaultSpec",
    "InjectedFaultError",
    "JOB_KIND",
    "JobResult",
    "JobSpec",
    "LEDGER_VERSION",
    "LedgerVersionError",
    "Manifest",
    "ManifestError",
    "NO_RETRY",
    "RetryPolicy",
    "RunLedger",
    "SweepWorker",
    "VerifyReport",
    "WorkerSummary",
    "atomic_write_bytes",
    "atomic_write_text",
    "backend_names",
    "build_app",
    "build_manifest",
    "cached_vertex_rank",
    "claim_backoff_s",
    "claim_race_delay_s",
    "classify_error",
    "default_cache",
    "exclusive_create_text",
    "experiment_config",
    "failed_result",
    "fsync_directory",
    "get_backend",
    "lease_expiry_stall_s",
    "load_ledger",
    "load_manifest",
    "make_jobspec",
    "parse_fault_plan",
    "register_backend",
    "reset_default_cache",
    "resolve_jobs",
    "run_spec",
    "seal_manifest",
    "spec_digest",
    "stable_hash",
    "verify_manifest",
]
