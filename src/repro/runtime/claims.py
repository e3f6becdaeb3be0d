"""Lease-based cell claims: how N sweep workers shard one grid.

The paper's PUs absorb load imbalance by stealing work from each other's
queues; one level up, independent ``gramer worker`` processes do the
same to a sweep grid, coordinated only through shared durable state — a
directory of **claim files** next to the run ledger.  No server, no
locks held across work, no assumption that any worker survives.

One claim file per :func:`~repro.runtime.ledger.spec_digest`, and three
atomic moves (all through :mod:`repro.runtime.atomicio` primitives):

* **acquire** — ``O_CREAT | O_EXCL`` create of ``<digest>.claim``.
  Exactly one of N racing workers wins; losers back off with
  deterministic seeded jitter (no thundering herd, no global RNG).
* **heartbeat** — the owner periodically rewrites its claim (tmp+rename)
  with a fresh ``refreshed_at``; the file's **mtime** is the lease
  clock, so expiry is judged by filesystem time, which every worker on
  a shared mount agrees on.
* **takeover** — a claim whose mtime is older than its lease TTL is a
  straggler's (hung, ``kill -9``'d, or partitioned).  A contender
  *renames* the expired file to a per-pid graveyard name — ``rename``
  succeeds for exactly one contender because the source vanishes — and
  the winner re-creates the claim with ``generation + 1``.  This is the
  work-stealing path: a dead worker's cells re-enter circulation after
  one lease TTL, and no two contenders ever both win.

An owner that was taken over (its heartbeat finds a different
worker/generation in the file) learns it **lost** the lease; its
in-flight computation is allowed to finish — results are deterministic,
so a duplicate is byte-identical — but the loss is reported so the
ledger can audit it.  In the steady state (no expiries) claims are
exclusive by construction and no cell is ever double-computed.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.obs.log import get_logger

from .atomicio import atomic_write_text, exclusive_create_text

__all__ = [
    "CLAIMS_VERSION",
    "Claim",
    "ClaimStore",
    "claim_backoff_s",
]

CLAIMS_VERSION = 1

_log = get_logger("runtime.claims")

#: Claim files: ``<digest>.claim``; graveyard names for expired claims
#: that lost their takeover race: ``<digest>.g<generation>.dead.<pid>``.
_CLAIM_SUFFIX = ".claim"


def _now_s() -> float:
    # Wall clock, deliberately: lease timestamps are *coordination*
    # metadata compared against filesystem mtimes that other hosts set;
    # they never reach any cached value or result fingerprint.
    # gramer: ignore[GRM101] -- cross-process lease clock, never result
    # content; monotonic clocks are not comparable across hosts.
    return time.time()


def claim_backoff_s(
    token: str, attempt: int, base_s: float = 0.05, cap_s: float = 1.0
) -> float:
    """Deterministic bounded backoff for claim contention.

    Same construction as the retry policy's seeded jitter: the factor
    comes from ``sha256(token | attempt)``, not a global RNG, so two
    runs of the same worker id contend identically (and ``gramer
    check``'s GRM102 stays clean).  Exponential in ``attempt``, capped
    at ``cap_s`` so a long-held claim is re-checked at a bounded rate.
    """
    seed = hashlib.sha256(f"{token}|{attempt}".encode()).digest()
    jitter = 0.5 + seed[0] / 255.0  # [0.5, 1.5)
    return min(cap_s, base_s * (2 ** min(attempt - 1, 6))) * jitter


@dataclass(frozen=True)
class Claim:
    """One held lease: which worker owns which cell, at what generation.

    ``generation`` starts at 1 and increments on every takeover, so the
    ledger's claim audit can distinguish steady-state exclusivity
    (generation 1 everywhere) from straggler recovery.
    """

    digest: str
    label: str
    worker: str
    generation: int
    lease_s: float
    acquired_at: float

    def payload(self, refreshed_at: float) -> str:
        record: dict[str, Any] = {
            "claims_version": CLAIMS_VERSION,
            "digest": self.digest,
            "label": self.label,
            "worker": self.worker,
            "generation": self.generation,
            "lease_s": self.lease_s,
            "acquired_at": self.acquired_at,
            "refreshed_at": refreshed_at,
        }
        return json.dumps(record, sort_keys=True)


class ClaimStore:
    """Spec-digest-keyed claim files under one shared directory.

    All mutation goes through the three atomic moves described in the
    module docstring; readers tolerate every intermediate state (missing
    file, torn content readable as garbage, foreign owner).
    """

    def __init__(
        self, root: str | Path, worker: str, lease_s: float = 30.0
    ) -> None:
        if lease_s <= 0:
            raise ValueError("lease_s must be positive")
        self.root = Path(root)
        self.worker = worker
        self.lease_s = lease_s

    # -- plumbing -----------------------------------------------------------

    def path_for(self, digest: str) -> Path:
        return self.root / f"{digest}{_CLAIM_SUFFIX}"

    def _read(self, path: Path) -> dict[str, Any] | None:
        """Best-effort parse of a claim file; ``None`` if unreadable."""
        try:
            text = path.read_text(encoding="utf-8")
            record = json.loads(text)
        except (OSError, json.JSONDecodeError):
            return None
        return record if isinstance(record, dict) else None

    def _expired(self, path: Path) -> bool:
        """Lease judgment by mtime: filesystem time is the shared clock."""
        try:
            age_s = _now_s() - path.stat().st_mtime
        except OSError:
            return False  # vanished: someone released or took over
        return age_s > self.lease_s

    # -- the three atomic moves ---------------------------------------------

    def try_acquire(self, digest: str, label: str = "") -> Claim | None:
        """One claim attempt: fresh create, or takeover of an expired lease.

        Returns the held :class:`Claim` on success, ``None`` when the
        cell is validly held by someone else (back off and move on).
        Never blocks, never raises for contention.
        """
        path = self.path_for(digest)
        claim = Claim(
            digest=digest,
            label=label,
            worker=self.worker,
            generation=1,
            lease_s=self.lease_s,
            acquired_at=_now_s(),
        )
        if exclusive_create_text(path, claim.payload(claim.acquired_at)):
            return claim
        return self._try_takeover(path, digest, label)

    def _try_takeover(
        self, path: Path, digest: str, label: str
    ) -> Claim | None:
        """Steal an expired claim; exactly one contender can win.

        The rename-to-graveyard is the linearization point: the source
        file exists once, so among any number of racing contenders (and
        the possibly-still-running owner's heartbeat, which rewrites
        *into* the same name and therefore never resurrects a renamed
        file) exactly one ``os.rename`` succeeds.
        """
        if not self._expired(path):
            return None
        held = self._read(path) or {}
        generation = int(held.get("generation", 1) or 1) + 1
        grave = path.with_name(
            f"{digest}.g{generation}.dead.{os.getpid()}"
        )
        try:
            os.rename(path, grave)
        except OSError:
            return None  # lost the race (or the owner released in time)
        try:
            grave.unlink(missing_ok=True)
        except OSError:
            pass  # graveyard debris is harmless; cleaned by later runs
        claim = Claim(
            digest=digest,
            label=label,
            worker=self.worker,
            generation=generation,
            lease_s=self.lease_s,
            acquired_at=_now_s(),
        )
        if exclusive_create_text(path, claim.payload(claim.acquired_at)):
            _log.warning(
                "claim takeover: %s (%s) generation %d by %s "
                "(lease expired after %.1fs)",
                digest[:16],
                label,
                generation,
                self.worker,
                self.lease_s,
            )
            return claim
        return None  # a third party re-created it first; treat as held

    def refresh(self, claim: Claim) -> bool:
        """Heartbeat: re-publish the claim, bumping the lease mtime.

        Returns ``False`` when the lease was **lost** — the file now
        names a different worker/generation (takeover) — in which case
        nothing is written: the thief owns the cell now, and overwriting
        its claim would hand the lease back to a straggler.
        """
        path = self.path_for(claim.digest)
        held = self._read(path)
        if held is not None and (
            held.get("worker") != claim.worker
            or int(held.get("generation", 0) or 0) != claim.generation
        ):
            return False
        try:
            atomic_write_text(
                path, claim.payload(_now_s()), sync=False
            )
        except OSError:
            return False
        return True

    def release(self, claim: Claim) -> bool:
        """Drop a completed cell's claim (only if still ours).

        A lost lease is left alone — the file belongs to the thief.
        Returns whether the claim was actually removed.
        """
        path = self.path_for(claim.digest)
        held = self._read(path)
        if held is not None and (
            held.get("worker") != claim.worker
            or int(held.get("generation", 0) or 0) != claim.generation
        ):
            return False
        try:
            path.unlink(missing_ok=True)
        except OSError:
            return False
        return True

    def drop(self, digest: str, worker: str) -> bool:
        """Remove ``worker``'s claim on ``digest`` without a lease wait.

        For a supervisor that saw ``worker`` die: no owner is left to
        release the claim.  A claim held by anyone else is left alone.
        """
        path = self.path_for(digest)
        held = self._read(path)
        if held is None or held.get("worker") != worker:
            return False
        try:
            path.unlink(missing_ok=True)
        except OSError:
            return False
        return True

    def holder(self, digest: str) -> dict[str, Any] | None:
        """The current claim record for ``digest`` (diagnostics)."""
        return self._read(self.path_for(digest))
