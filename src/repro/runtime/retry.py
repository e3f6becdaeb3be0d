"""Retry policy: error classification and deterministic backoff.

A sweep cell can die two ways.  *Permanent* failures — a backend
``ValueError``, an assertion, a model-level
:class:`~repro.accel.sim.AncestorBufferOverflowError` — are properties of
the spec itself: running the same job again produces the same failure, so
retrying only burns time.  *Transient* failures — a worker OOM-killed
mid-job (``ChildProcessError`` from the sweep fleet), a pickling hiccup,
a per-job timeout, any ``OSError`` — are properties of the *host*, and a second attempt usually
succeeds.  :func:`classify_error` encodes that split; :class:`RetryPolicy`
bounds attempts and spaces them with exponential backoff whose jitter is
*seeded* (hash of policy seed, job token, and attempt number), so two runs
of the same sweep back off identically — determinism extends to the
recovery path.

The classifier accepts live exceptions *and* the ``"Type: message"``
strings a :class:`~repro.runtime.spec.JobResult` carries, because
fleet-level failures (a SIGKILLed worker) surface only as strings in the
parent process.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

__all__ = [
    "DEFAULT_RETRY",
    "NO_RETRY",
    "PERMANENT",
    "RetryPolicy",
    "TRANSIENT",
    "classify_error",
    "is_transient",
]

#: Classification labels returned by :func:`classify_error`.
TRANSIENT = "transient"
PERMANENT = "permanent"

# Host-side breakage: retrying is expected to succeed.  ``OSError`` covers
# the disk/IPC family (BrokenPipeError, ConnectionError, ...); the chaos
# harness's injected fault derives from OSError so injections are
# transient by construction.  An exception is transient when any class in
# its MRO is named here; a message crossing a process boundary ("Type:
# ...", e.g. "TimeoutError: job exceeded 5s") by its leading name.
_TRANSIENT_NAMES = frozenset(
    {
        "OSError",
        "IOError",
        "TimeoutError",
        "ChildProcessError",
        "BrokenProcessPool",
        "BrokenExecutor",
        "PicklingError",
        "UnpicklingError",
        "PickleError",
        "EOFError",
        "MemoryError",
        "ConnectionError",
        "ConnectionResetError",
        "BrokenPipeError",
        "InterruptedError",
        "InjectedFaultError",
    }
)


def classify_error(error: BaseException | str) -> str:
    """``TRANSIENT`` (worth retrying) or ``PERMANENT`` (fail fast).

    Unknown exception types default to *permanent*: a retry budget spent
    on a deterministic bug delays the sweep without changing its outcome.
    """
    if isinstance(error, BaseException):
        names = {cls.__name__ for cls in type(error).__mro__}
        return TRANSIENT if names & _TRANSIENT_NAMES else PERMANENT
    name = str(error).split(":", 1)[0].strip()
    # Qualified names ("package.module.TypeName") compare by the type name.
    name = name.rsplit(".", 1)[-1]
    return TRANSIENT if name in _TRANSIENT_NAMES else PERMANENT


def is_transient(error: BaseException | str) -> bool:
    """Shorthand for ``classify_error(error) == TRANSIENT``."""
    return classify_error(error) == TRANSIENT


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, deterministically jittered exponential backoff.

    ``max_attempts`` counts *total* tries (1 = no retries).  Attempt ``k``
    (1-based) failing transiently waits
    ``min(base_delay_s * 2**(k-1), max_delay_s)`` scaled by a jitter
    factor in ``[1 - jitter, 1 + jitter]`` drawn from a hash of
    ``(seed, token, k)`` — no global RNG, no wall clock, same delays on
    every host.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def should_retry(self, error: BaseException | str, attempt: int) -> bool:
        """Whether attempt number ``attempt`` (1-based) failing with
        ``error`` deserves another try."""
        return attempt < self.max_attempts and is_transient(error)

    def delay_s(self, attempt: int, token: str = "") -> float:
        """Backoff before the attempt *after* ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        base = min(self.base_delay_s * (2.0 ** (attempt - 1)), self.max_delay_s)
        if self.jitter == 0.0 or base == 0.0:
            return base
        digest = hashlib.sha256(
            f"{self.seed}|{token}|{attempt}".encode()
        ).digest()
        # 8 bytes of hash -> uniform unit float -> factor in [1-j, 1+j].
        unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
        factor = 1.0 + self.jitter * (2.0 * unit - 1.0)
        return base * factor


#: The runtime's default recovery stance: two retries with ~50ms/100ms
#: backoff before a transient failure becomes final.
DEFAULT_RETRY = RetryPolicy()

#: Single-attempt policy for callers that want the pre-resilience
#: fail-fast behavior (and for tests asserting first-failure paths).
NO_RETRY = RetryPolicy(max_attempts=1)
