"""Cache replacement policies (paper §IV-C).

The low-priority memory must pick victims.  Classic recency-based policies
(LRU et al.) "may destroy the extension locality of some low-priority data
that is not frequent recently but frequent globally", so GRAMER blends the
static ON1 rank with recency::

    victim = argmax_v  Rank(ON1(v)) + λ · Rec(v)        (Equation 2)

where ``Rec(v)`` is the number of accesses since ``v`` was last referenced.
``λ = 0`` degenerates to rank-only (a second static memory), large ``λ``
degenerates to LRU; the paper uses ``λ = 1`` and sweeps it in Fig. 14(b).

Policies see :class:`LineState` views and return the victim way; they are
stateless, so one instance can serve every set of every cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

__all__ = [
    "LineState",
    "ReplacementPolicy",
    "LRUPolicy",
    "LocalityPreservedPolicy",
    "FIFOPolicy",
    "RandomPolicy",
    "xorshift32",
]


@dataclass
class LineState:
    """Replacement-relevant metadata of one cache line."""

    valid: bool = False
    tag: int = -1
    rank: int = 0  # Rank(ON1(data)) of the resident line
    last_access: int = 0  # global access sequence number of last touch
    fill_seq: int = 0  # global sequence number when filled


class ReplacementPolicy(Protocol):
    """Chooses which way of a full set to evict."""

    name: str

    def victim(self, lines: Sequence[LineState], clock: int) -> int:
        """Index of the way to evict.  All lines are valid when called."""


class LRUPolicy:
    """Least-recently-used: evict the stalest line."""

    name = "lru"

    def victim(self, lines: Sequence[LineState], clock: int) -> int:
        return min(range(len(lines)), key=lambda w: lines[w].last_access)


class LocalityPreservedPolicy:
    """GRAMER's Equation (2): ``argmax Rank + λ·Rec``.

    ``rank_scale`` normalises the rank term so rank and recency compete on
    comparable magnitudes regardless of graph size; the default (1.0) uses
    raw ranks as the paper's formula states.
    """

    name = "locality-preserved"

    def __init__(self, lam: float = 1.0, rank_scale: float = 1.0) -> None:
        if lam < 0:
            raise ValueError("lambda must be >= 0")
        self.lam = lam
        self.rank_scale = rank_scale

    def victim(self, lines: Sequence[LineState], clock: int) -> int:
        def score(way: int) -> float:
            line = lines[way]
            recency = clock - line.last_access
            return line.rank * self.rank_scale + self.lam * recency

        return max(range(len(lines)), key=score)


class FIFOPolicy:
    """First-in-first-out: evict the oldest fill (ablation baseline)."""

    name = "fifo"

    def victim(self, lines: Sequence[LineState], clock: int) -> int:
        return min(range(len(lines)), key=lambda w: lines[w].fill_seq)


class RandomPolicy:
    """Deterministic pseudo-random eviction (ablation baseline)."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._state = seed * 2654435761 % 2**32 or 1

    def victim(self, lines: Sequence[LineState], clock: int) -> int:
        self._state = x = xorshift32(self._state)
        return x % len(lines)


def xorshift32(x: int) -> int:
    """One step of Marsaglia's 13/17/5 xorshift over a nonzero 32-bit state.

    Cheap and deterministic: the random eviction ablation and the LFSR
    victim selector of the PU scheduler (``repro.accel.scheduler``) draw
    from it.
    """
    x ^= (x << 13) & 0xFFFFFFFF
    x ^= x >> 17
    x ^= (x << 5) & 0xFFFFFFFF
    return x
