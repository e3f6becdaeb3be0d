"""PU-internal scheduling structures (paper §V-B, §V-C, Figs. 9-10).

Each PU pipelines up to ``slots_per_pu`` embeddings, one extension path per
slot ID.  A slot's extension path lives in its *ancestor buffer* — here the
stack of compacted :class:`~repro.mining.engine.Frame` records (extending
vertex + offset, Fig. 10).  The *stealing buffer* tracks recently busy slot
IDs so an idle slot can steal work from a demonstrably busy one instead of
probing randomly (§V-C's comparison against the LFSR selector of [8]);
:class:`Stealer` is that steal discipline, shared by the simulator and
its test oracle.
"""

from __future__ import annotations

from collections import deque

from repro.mining.engine import Frame

__all__ = [
    "StealingBuffer",
    "Stealer",
    "split_frame",
    "steal_from_stack",
    "xorshift32",
]


def xorshift32(x: int) -> int:
    """One step of Marsaglia's 13/17/5 xorshift over a nonzero 32-bit state.

    Cheap and deterministic: the LFSR victim selector of [8] draws from it.
    """
    x ^= (x << 13) & 0xFFFFFFFF
    x ^= x >> 17
    x ^= (x << 5) & 0xFFFFFFFF
    return x


class StealingBuffer:
    """Bounded FIFO of busy slot IDs (§V-C).

    ``push`` records a slot that just received an embedding; ``pop`` yields
    the least-recently recorded busy slot.  Capacity matches the slot buffer
    (16 in the paper); stale IDs (slots that finished meanwhile) are simply
    skipped by the caller.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._queue: deque[int] = deque()

    def push(self, slot_id: int) -> None:
        """Record ``slot_id`` as busy (dropping the oldest when full)."""
        if len(self._queue) == self.capacity:
            self._queue.popleft()
        self._queue.append(slot_id)

    def pop(self) -> int | None:
        """Oldest recorded busy slot, or ``None`` when empty."""
        return self._queue.popleft() if self._queue else None

    def __len__(self) -> int:
        return len(self._queue)


def split_frame(frame: Frame) -> Frame | None:
    """Split ``frame``'s remaining candidate range; returns the thief's half.

    Preference order:

    1. Unstarted members: the thief takes members ``[m+1, limit)``, the
       victim keeps only the member it is currently scanning.
    2. Otherwise the remaining cursor range of the current member is halved.

    Returns ``None`` when the remainder is too small to split (≤ 1 pending
    candidate).  The two halves partition the original range exactly, so
    enumeration stays exactly-once — property-tested in
    ``tests/accel/test_scheduler.py``.
    """
    if frame.exhausted():
        return None
    if frame.member_idx + 1 < frame.member_limit:
        thief = Frame(frame.vertices, frame.columns)
        thief.member_idx = frame.member_idx + 1
        thief.member_limit = frame.member_limit
        frame.member_limit = frame.member_idx + 1
        return thief
    # Single member left; halve its remaining cursor range if it is loaded.
    if frame.member_base < 0:
        return None
    bound = frame.member_degree
    if frame.cursor_limit is not None and frame.cursor_limit < bound:
        bound = frame.cursor_limit
    remaining = bound - frame.edge_cursor
    if remaining <= 1:
        return None
    mid = frame.edge_cursor + (remaining + 1) // 2
    thief = Frame(frame.vertices, frame.columns)
    thief.member_idx = frame.member_idx
    thief.member_limit = frame.member_idx + 1
    thief.edge_cursor = mid
    thief.cursor_limit = bound
    # The thief re-reads the member's offsets on activation (member_base=-1),
    # matching the hardware re-fetch of the stolen embedding's metadata.
    frame.cursor_limit = mid
    return thief


def steal_from_stack(stack: list[Frame]) -> Frame | None:
    """Steal the largest available subtree from an ancestor-buffer stack.

    Scans bottom-up (shallowest ancestors own the largest unexplored
    subtrees) and splits the first frame with divisible remaining work.
    """
    for frame in stack:
        thief = split_frame(frame)
        if thief is not None:
            return thief
    return None


class Stealer:
    """One PU's work stealing (§V-C): stealing buffer or LFSR victim choice.

    ``stacks`` are the PU's per-slot ancestor-buffer stacks, indexed by
    slot ID; the engine mutates them in place and pushes a slot into
    ``buffer`` whenever that slot receives an embedding.  ``random``
    selects the LFSR victim selector of [8], seeded per PU.
    """

    __slots__ = ("stacks", "buffer", "random", "lfsr")

    def __init__(
        self, pu_index: int, stacks: list[list[Frame]], random: bool
    ) -> None:
        self.stacks = stacks
        self.buffer = StealingBuffer(len(stacks))
        self.random = random
        self.lfsr = (pu_index * 0x9E3779B9 + 0x1234567) & 0xFFFFFFFF or 1

    def steal(self, thief: int) -> int:
        """Hand slot ``thief`` work split from a busy sibling's stack.

        Returns the victim's slot ID, or -1 when nothing was stolen.  In
        random mode one LFSR-chosen slot is probed, which often lands on
        the thief or an idle slot: exactly the weakness §V-C cites.
        Otherwise buffered busy IDs are popped, skipping stale ones, until
        a splittable stack is found; that victim is re-pushed, since it is
        still busy with its remaining half.  On success the stolen frame
        tops the thief's stack and the thief is recorded busy.
        """
        stacks = self.stacks
        buffer = self.buffer
        stolen = None
        if self.random:
            self.lfsr = x = xorshift32(self.lfsr)
            victim = x % len(stacks)
            if victim != thief and stacks[victim]:
                stolen = steal_from_stack(stacks[victim])
        else:
            for _ in range(len(buffer)):
                victim = buffer.pop()
                if victim != thief and stacks[victim]:
                    stolen = steal_from_stack(stacks[victim])
                    if stolen is not None:
                        buffer.push(victim)
                        break
        if stolen is None:
            return -1
        stacks[thief].append(stolen)
        buffer.push(thief)
        return victim
