"""Fault injection for the execution runtime — the chaos harness.

The resilience layer (retry, worker replacement, ledger resume, cache
quarantine) only earns trust if its recovery paths are *exercised*, not
just written.  This module injects four deterministic fault kinds into
job execution:

* ``kill`` — the worker process SIGKILLs itself mid-job (models an OOM
  kill; the executor must drop its claim and start a replacement);
* ``hang`` — the job sleeps past its timeout (models a livelock; the
  executor must fail/retry it without reaping healthy siblings);
* ``raise`` — the job raises :class:`InjectedFaultError` (an ``OSError``
  subclass, so it is *transient* by the retry classifier's own rules);
* ``corrupt`` — after the job's result is stored, its artifact-cache disk
  entry is bit-flipped and evicted from the memory tier (the next read
  must checksum-fail, quarantine, and recompute);
* ``claim-race`` — a distributed sweep worker delays before every claim
  attempt, aligning racing workers onto the same cells so the
  ``O_CREAT|O_EXCL`` exclusivity of :mod:`repro.runtime.claims` is
  exercised under maximum contention;
* ``lease-expiry`` — a distributed sweep worker suppresses its lease
  heartbeat and stalls mid-cell past the TTL, so a sibling must take the
  claim over *while the straggler is still running* (the straggler then
  finishes as a benign, byte-identical duplicate).

Faults are described by a :class:`FaultPlan` — a frozen, picklable value
that sweep workers inherit — and each :class:`FaultSpec` names the
*attempt number* it fires on, so a fault plan is a deterministic script:
``raise@1`` fails the first attempt and lets the retry succeed.  Plans
come from ``Executor(faults=...)`` or the ``GRAMER_FAULTS`` environment
variable (``kind[:seconds][@attempt][=label-substring]``, ``;``-separated,
e.g. ``kill@1=gramer:3-CF;raise@1=fractal;lease-expiry:2.5@1``; the
optional ``:seconds`` sets the duration knob — hang length, claim-race
delay, or mid-cell stall).

Chaos tests assert the end state: a fault-injected sweep converges to
results byte-identical (``JobResult.fingerprint``) to a fault-free run.
"""

from __future__ import annotations

import os
import signal
import time

from dataclasses import dataclass

from repro.obs.log import get_logger

from .cache import ArtifactCache

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "InjectedFaultError",
    "active_fault_plan",
    "apply_cache_corruption",
    "apply_pre_run_faults",
    "claim_race_delay_s",
    "corrupt_entry",
    "lease_expiry_stall_s",
    "parse_fault_plan",
]

_ENV_FAULTS = "GRAMER_FAULTS"

FAULT_KINDS = ("kill", "hang", "raise", "corrupt", "claim-race", "lease-expiry")

_log = get_logger("runtime.chaos")


class InjectedFaultError(OSError):
    """A chaos-injected failure.

    Subclasses ``OSError`` deliberately: injections model host-side
    breakage, so :func:`repro.runtime.retry.classify_error` sees them as
    transient without a special case.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault: what to do, to which jobs, on which attempt."""

    kind: str
    match: str = ""  # substring of ``spec.label()``; "" matches every job
    attempt: int = 1  # 1-based attempt number the fault fires on
    # Duration knob (the ``:seconds`` token): hang length for ``hang``,
    # pre-claim delay for ``claim-race``, mid-cell stall for
    # ``lease-expiry``.  The claim-race default is small on purpose —
    # just enough to line contending workers up on the same cells.
    hang_s: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if self.attempt < 1:
            raise ValueError("fault attempt is 1-based")

    def applies(self, label: str, attempt: int) -> bool:
        return attempt == self.attempt and (
            not self.match or self.match in label
        )


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, picklable script of faults for one run."""

    faults: tuple[FaultSpec, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.faults)

    def matching(self, label: str, attempt: int) -> list[FaultSpec]:
        return [f for f in self.faults if f.applies(label, attempt)]


_DEFAULT_DURATION_S = {"claim-race": 0.05}


def parse_fault_plan(text: str) -> FaultPlan:
    """Parse ``GRAMER_FAULTS`` syntax into a plan.

    Tokens are ``;``-separated, each ``kind[:seconds][@attempt][=match]``
    (``:seconds`` sets the duration knob for hang/claim-race/
    lease-expiry).  Malformed tokens are *dropped with a logged warning*
    naming the bad value — a typo'd fault plan must not silently run
    fault-free (the same contract ``resolve_jobs`` applies to
    ``GRAMER_JOBS``).
    """
    faults: list[FaultSpec] = []
    for token in text.split(";"):
        token = token.strip()
        if not token:
            continue
        head, _, match = token.partition("=")
        kind_part, _, attempt_text = head.strip().partition("@")
        kind, _, duration_text = kind_part.strip().partition(":")
        kind = kind.strip()
        try:
            attempt = int(attempt_text) if attempt_text.strip() else 1
            if duration_text.strip():
                hang_s = float(duration_text)
            else:
                hang_s = _DEFAULT_DURATION_S.get(kind, 30.0)
            faults.append(
                FaultSpec(
                    kind=kind,
                    match=match.strip(),
                    attempt=attempt,
                    hang_s=hang_s,
                )
            )
        except ValueError as exc:
            _log.warning(
                "ignoring malformed %s token %r: %s", _ENV_FAULTS, token, exc
            )
    return FaultPlan(faults=tuple(faults))


def active_fault_plan() -> FaultPlan:
    """The plan scripted by ``$GRAMER_FAULTS`` (empty when unset)."""
    # gramer: ignore[GRM201] -- chaos-harness switch: injects *failures*
    # for resilience tests; recovered results are asserted byte-identical
    # to fault-free runs, so no cached value can depend on it.
    text = os.environ.get(_ENV_FAULTS, "")
    if not text.strip():
        return FaultPlan()
    return parse_fault_plan(text)


def apply_pre_run_faults(
    plan: FaultPlan, label: str, attempt: int
) -> None:
    """Fire ``kill``/``hang``/``raise`` faults scripted for this attempt.

    Called by :func:`~repro.runtime.executor.run_spec` inside its
    per-attempt ``try`` block, so a ``raise`` injection flows through the
    exact same classification/retry path a real transient failure would.
    """
    for fault in plan.matching(label, attempt):
        if fault.kind == "kill":
            _log.warning(
                "chaos: SIGKILL worker pid=%d for %s attempt %d",
                os.getpid(),
                label,
                attempt,
            )
            os.kill(os.getpid(), signal.SIGKILL)
        elif fault.kind == "hang":
            _log.warning(
                "chaos: hanging %s attempt %d for %.1fs",
                label,
                attempt,
                fault.hang_s,
            )
            time.sleep(fault.hang_s)
        elif fault.kind == "raise":
            raise InjectedFaultError(
                f"injected fault for {label} attempt {attempt}"
            )


def claim_race_delay_s(plan: FaultPlan, label: str, attempt: int = 1) -> float:
    """Total scripted pre-claim delay for this cell (0.0 = no fault).

    Called by the distributed sweep worker immediately before each claim
    attempt; the delay widens the race window so contending workers hit
    ``O_CREAT|O_EXCL`` on the same cells at the same moment.
    """
    return sum(
        fault.hang_s
        for fault in plan.matching(label, attempt)
        if fault.kind == "claim-race"
    )


def lease_expiry_stall_s(
    plan: FaultPlan, label: str, attempt: int = 1
) -> float:
    """Scripted mid-cell stall with the heartbeat suppressed (0.0 = none).

    A positive value makes the worker hold its claim *without
    refreshing* for that long before running the cell — modelling a
    straggler whose lease must expire mid-run and be taken over by a
    sibling.
    """
    return max(
        (
            fault.hang_s
            for fault in plan.matching(label, attempt)
            if fault.kind == "lease-expiry"
        ),
        default=0.0,
    )


def corrupt_entry(cache: ArtifactCache, kind: str, key: object) -> bool:
    """Bit-flip ``(kind, key)``'s disk entry and drop its memory copy.

    Returns whether a disk entry existed to corrupt.  The corruption is a
    single inverted byte mid-file — enough to fail the content checksum
    without changing the file's size or envelope shape.
    """
    path = cache.entry_path(kind, key)
    cache.evict_memory(kind, key)
    if not path.exists():
        return False
    data = bytearray(path.read_bytes())
    if not data:
        return False
    index = len(data) // 2
    data[index] ^= 0xFF
    # gramer: ignore[GRM802] -- deliberately *non*-atomic write-in-place:
    # this simulates the corruption the atomic helpers exist to prevent.
    path.write_bytes(bytes(data))
    return True


def apply_cache_corruption(
    plan: FaultPlan,
    cache: ArtifactCache,
    kind: str,
    key: object,
    label: str,
    attempt: int,
) -> None:
    """Fire ``corrupt`` faults scripted for this attempt (post-store)."""
    for fault in plan.matching(label, attempt):
        if fault.kind != "corrupt":
            continue
        if corrupt_entry(cache, kind, key):
            _log.warning(
                "chaos: corrupted cache entry for %s attempt %d",
                label,
                attempt,
            )
