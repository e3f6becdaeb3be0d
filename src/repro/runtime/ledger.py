"""Crash-safe run ledger: an append-only JSONL journal of sweep progress.

Every cell a sweep worker (:mod:`repro.runtime.worker`) runs leaves two
records in the ledger — a ``start`` line when the attempt begins and a
``finish`` line when its outcome is known — each a single JSON object on
its own line.  Lines are written with one ``write()`` call on an
append-mode handle (atomic at the OS level for sane line sizes) and
``finish`` records are fsync'd, so a crash, OOM kill, or ^C loses at most
the in-flight attempt, never completed history.

Jobs are keyed by their **spec digest** (:func:`spec_digest` — the stable
content hash of the spec, independent of cache versioning), which is what
makes resumption safe.  A run that appends to an existing ledger reads it
through a **run boundary**: the file's byte length when the run started
(:func:`ledger_length`).  :func:`load_ledger` reports, per digest, the
last outcome before the boundary (earlier runs), the last outcome after
it (this run), and the ``start`` records after it (this run's attempts).
Earlier ``ok`` cells are skipped once their artifact verifies, earlier
failures and interrupted cells re-run, and outcomes written during the
run are final for it — so ``gramer sweep --resume <ledger>`` is just
``--ledger`` on a ledger that already has history.  The ``finish``
record carries enough of the outcome (modeled seconds, energy, system,
retries) to render skipped cells in reports without recomputing them.

A truncated final line — the signature of a crash mid-write — is tolerated
on load and reported, not fatal.  See ``docs/resilience.md``.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, IO, Iterator, Mapping

from repro.obs.log import get_logger

from .cache import stable_hash
from .spec import JobResult, JobSpec

__all__ = [
    "LEDGER_VERSION",
    "ClaimRecord",
    "LedgerEntry",
    "LedgerState",
    "LedgerVersionError",
    "RunLedger",
    "ledger_length",
    "load_ledger",
    "spec_digest",
]

#: Journal format version, written into every ``sweep_start`` header.
#: Replay **accepts older** versions (their records are a subset of what
#: the current loader understands) and **rejects newer** ones with a
#: :class:`LedgerVersionError` — a ledger written by a future runtime may
#: carry record shapes this loader would silently misparse.
#: v2: claim-lifecycle records + per-record ``worker`` provenance.
LEDGER_VERSION = 2


class LedgerVersionError(ValueError):
    """A ledger header declares a version newer than this runtime."""

_log = get_logger("runtime.ledger")


def spec_digest(spec: JobSpec) -> str:
    """Stable content address of a spec (independent of cache version)."""
    return stable_hash(asdict(spec))


@dataclass(frozen=True)
class LedgerEntry:
    """The last known outcome of one spec digest."""

    digest: str
    label: str
    status: str  # "ok" | "failed" | "started"
    retries: int = 0
    wall_seconds: float = 0.0
    seconds: float | None = None
    energy_j: float | None = None
    system: str = ""
    error: str | None = None

    @property
    def completed(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class ClaimRecord:
    """One claim-lifecycle event replayed from the ledger.

    ``action`` is ``"claimed"`` (fresh O_EXCL acquisition),
    ``"takeover"`` (an expired lease re-claimed from a straggler),
    ``"released"`` (the owner finished and removed its claim), or
    ``"lost"`` (the owner noticed its lease had been taken over).
    """

    digest: str
    label: str
    worker: str
    generation: int
    action: str


@dataclass
class LedgerState:
    """Parsed view of a ledger file: final status per digest.

    ``before`` and ``after`` split the ``finish`` outcomes at the run
    boundary handed to :func:`load_ledger` (the last one per digest on
    each side); ``starts_after`` counts the ``start`` records after it.
    """

    entries: dict[str, LedgerEntry] = field(default_factory=dict)
    attempts: dict[str, int] = field(default_factory=dict)
    truncated_lines: int = 0
    claims: list[ClaimRecord] = field(default_factory=list)
    finish_counts: dict[str, int] = field(default_factory=dict)
    version: int | None = None
    before: dict[str, LedgerEntry] = field(default_factory=dict)
    after: dict[str, LedgerEntry] = field(default_factory=dict)
    starts_after: dict[str, int] = field(default_factory=dict)

    def completed_digests(self) -> set[str]:
        return {d for d, e in self.entries.items() if e.completed}

    def terminal_digests(self) -> set[str]:
        """Digests whose last recorded outcome is ok *or* failed.

        This is the whole-file view; sweep workers decide per run instead
        (``before``/``after``): a failure recorded during the run is
        final for it, one recorded before it re-runs.
        """
        return {
            d for d, e in self.entries.items() if e.status in ("ok", "failed")
        }

    def takeover_digests(self) -> set[str]:
        """Digests whose claim was ever taken over from an expired lease."""
        return {c.digest for c in self.claims if c.action == "takeover"}

    def entry_for(self, spec: JobSpec) -> LedgerEntry | None:
        return self.entries.get(spec_digest(spec))

    def is_completed(self, spec: JobSpec) -> bool:
        entry = self.entry_for(spec)
        return entry is not None and entry.completed


class RunLedger:
    """Append-only journal handle for one sweep.

    The file is opened lazily on the first record and kept open for the
    run; ``flush()`` fsyncs whatever has been written (called on every
    ``finish`` record and on interrupt shutdown).
    """

    def __init__(self, path: str | Path, worker: str = "") -> None:
        self.path = Path(path)
        self.worker = worker
        self._handle: IO[str] | None = None

    # -- low-level record plumbing ------------------------------------------

    def _open(self) -> IO[str]:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def _append(self, record: Mapping[str, Any], sync: bool = False) -> None:
        line = json.dumps(dict(record), sort_keys=True, default=str)
        handle = self._open()
        handle.write(line + "\n")  # one write call: the line lands whole
        handle.flush()
        if sync:
            os.fsync(handle.fileno())

    def flush(self) -> None:
        """Force everything written so far onto disk."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        self.flush()
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- event records ------------------------------------------------------

    def sweep_started(self, total: int, note: str = "") -> None:
        """Header record: a new executor run over ``total`` specs began."""
        self._append(
            {
                "event": "sweep_start",
                "ledger_version": LEDGER_VERSION,
                "total": total,
                "note": note,
            },
            sync=True,
        )

    def job_started(self, spec: JobSpec, attempt: int) -> None:
        self._append(
            {
                "event": "start",
                "digest": spec_digest(spec),
                "label": spec.label(),
                "attempt": attempt,
                "worker": self.worker,
            }
        )

    def job_finished(self, result: JobResult) -> None:
        """Durable outcome record (fsync'd): this cell never re-runs."""
        self._append(
            {
                "event": "finish",
                "digest": spec_digest(result.spec),
                "label": result.spec.label(),
                "status": "ok" if result.ok else "failed",
                "retries": result.retries,
                "wall_seconds": result.wall_seconds,
                "seconds": result.seconds,
                "energy_j": result.energy_j,
                "system": result.system,
                "error": result.error,
                "cached": result.cached,
                "worker": self.worker,
            },
            sync=True,
        )

    def claim_event(
        self, digest: str, label: str, generation: int, action: str
    ) -> None:
        """Claim-lifecycle audit record (claimed/takeover/released/lost).

        Fsync'd: takeover accounting (the chaos suite's double-compute
        audit) must survive the very worker crashes it documents.
        """
        self._append(
            {
                "event": "claim",
                "digest": digest,
                "label": label,
                "worker": self.worker,
                "generation": generation,
                "action": action,
            },
            sync=True,
        )


def ledger_length(path: str | Path) -> int:
    """The ledger's byte length now: a run boundary (0 if absent)."""
    try:
        return Path(path).stat().st_size
    except FileNotFoundError:
        return 0


def _iter_records(
    path: Path,
) -> Iterator[tuple[int, dict[str, Any] | None, str]]:
    """``(byte offset, record or None, stripped line)`` per non-blank line."""
    offset = 0
    with open(path, "rb") as handle:
        for raw in handle:
            start = offset
            offset += len(raw)
            stripped = raw.decode("utf-8", errors="replace").strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError:
                yield start, None, stripped
                continue
            if isinstance(record, dict):
                yield start, record, stripped
            else:
                yield start, None, stripped


def load_ledger(path: str | Path, boundary: int | None = None) -> LedgerState:
    """Replay a ledger file into its final per-digest state.

    Later records win (a re-run overwrites an earlier failure).  Torn or
    garbage lines — a crash mid-write — are counted and skipped, never
    fatal: the matching job simply reads as not-completed and re-runs.

    ``boundary`` is a byte offset (:func:`ledger_length` when a run
    started): ``finish`` records that begin before it fill ``before``,
    the rest ``after``, and ``start`` records after it count into
    ``starts_after``.  ``None`` puts every record before it, the view
    from outside any run.

    Version contract: a ``sweep_start`` header declaring a
    ``ledger_version`` **newer** than :data:`LEDGER_VERSION` raises
    :class:`LedgerVersionError` — its records may carry shapes this
    loader would silently misparse into wrong resume decisions.  Older
    versions replay fine (accept-older), and unknown *event* kinds from
    same-or-older versions are skipped without complaint.
    """
    path = Path(path)
    state = LedgerState()
    if not path.exists():
        return state
    for offset, record, raw in _iter_records(path):
        if record is None:
            state.truncated_lines += 1
            _log.warning(
                "ledger %s: skipping torn/garbage line %r", path, raw[:80]
            )
            continue
        event = record.get("event")
        digest = record.get("digest")
        if event == "sweep_start":
            declared = record.get("ledger_version")
            if isinstance(declared, int):
                if declared > LEDGER_VERSION:
                    raise LedgerVersionError(
                        f"ledger {path} was written by a newer runtime "
                        f"(ledger_version {declared} > supported "
                        f"{LEDGER_VERSION}); refusing to replay it — "
                        "upgrade this installation or re-run the sweep "
                        "with a fresh ledger"
                    )
                state.version = (
                    declared
                    if state.version is None
                    else max(state.version, declared)
                )
        elif event == "claim" and isinstance(digest, str):
            state.claims.append(
                ClaimRecord(
                    digest=digest,
                    label=str(record.get("label", "")),
                    worker=str(record.get("worker", "")),
                    generation=int(record.get("generation", 1) or 1),
                    action=str(record.get("action", "")),
                )
            )
        elif event == "start" and isinstance(digest, str):
            state.attempts[digest] = state.attempts.get(digest, 0) + 1
            if boundary is not None and offset >= boundary:
                state.starts_after[digest] = (
                    state.starts_after.get(digest, 0) + 1
                )
            if digest not in state.entries or not state.entries[digest].completed:
                state.entries[digest] = LedgerEntry(
                    digest=digest,
                    label=str(record.get("label", "")),
                    status="started",
                )
        elif event == "finish" and isinstance(digest, str):
            state.finish_counts[digest] = (
                state.finish_counts.get(digest, 0) + 1
            )
            seconds = record.get("seconds")
            energy = record.get("energy_j")
            entry = state.entries[digest] = LedgerEntry(
                digest=digest,
                label=str(record.get("label", "")),
                status=str(record.get("status", "failed")),
                retries=int(record.get("retries", 0) or 0),
                wall_seconds=float(record.get("wall_seconds", 0.0) or 0.0),
                seconds=float(seconds) if seconds is not None else None,
                energy_j=float(energy) if energy is not None else None,
                system=str(record.get("system", "")),
                error=(
                    str(record["error"])
                    if record.get("error") is not None
                    else None
                ),
            )
            if boundary is not None and offset >= boundary:
                state.after[digest] = entry
            else:
                state.before[digest] = entry
    return state
