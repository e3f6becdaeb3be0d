"""Slot scheduling structures: stealing buffer, stealer, frame splitting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import clique, star
from repro.mining.engine import Frame, NullMemory, slot_step
from repro.accel.scheduler import (
    Stealer,
    StealingBuffer,
    split_frame,
    steal_from_stack,
)

from ..conftest import small_graphs
from ..differential.engine_oracle import SlotContext


class TestStealingBuffer:
    def test_fifo_order(self):
        buf = StealingBuffer(4)
        for i in (3, 1, 2):
            buf.push(i)
        assert buf.pop() == 3
        assert buf.pop() == 1

    def test_capacity_drops_oldest(self):
        buf = StealingBuffer(2)
        buf.push(0)
        buf.push(1)
        buf.push(2)
        assert len(buf) == 2
        assert buf.pop() == 1

    def test_empty_pop(self):
        assert StealingBuffer(1).pop() is None

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            StealingBuffer(0)


class TestSlotContext:
    def test_idle_tracking(self):
        slot = SlotContext(0)
        assert slot.idle
        slot.stack.append(Frame((0,), (0,)))
        assert not slot.idle
        assert slot.depth == 1


def step(graph, frame, clique_only=False):
    """One uncharged slot step of ``frame``: ``(candidate, column)``."""
    mem = NullMemory()
    return slot_step(
        graph.offsets.tolist(), graph.neighbors.tolist(), frame, clique_only,
        False, mem.access,
    )


def drain(graph, frame, clique_only=False):
    """Fully explore a frame (and its descendants), returning found sets."""
    found = []
    stack = [frame]
    while stack:
        top = stack[-1]
        candidate, column = step(graph, top, clique_only)
        if candidate is None:
            stack.pop()
            continue
        if column:
            vertices = top.vertices + (candidate,)
            found.append(vertices)
            if len(vertices) < 3:
                stack.append(Frame(vertices, top.columns + (column,)))
    return found


class TestSplitFrame:
    def test_cursor_split_partitions_work_exactly(self):
        g = star(6)
        base = drain(g, Frame((0,), (0,)))

        victim = Frame((0,), (0,))
        first, column = step(g, victim)  # consume one candidate
        consumed = []
        if column:
            consumed.append((0, first))
            consumed.extend(drain(g, Frame((0, first), (0, column))))
        thief = split_frame(victim)
        assert thief is not None  # five candidates remain: splittable
        combined = consumed + drain(g, victim) + drain(g, thief)
        assert sorted(combined) == sorted(base)

    def test_exhausted_frame_not_splittable(self):
        g = clique(3)
        frame = Frame((0,), (0,))
        while step(g, frame)[0] is not None:
            pass
        assert split_frame(frame) is None

    def test_single_candidate_not_splittable(self):
        g = star(1)  # vertex 0 has exactly one neighbor
        frame = Frame((0,), (0,))
        step(g, frame)  # consumes the only candidate
        assert split_frame(frame) is None

    def test_member_split_prefers_members(self):
        frame = Frame((0, 1), (0, 0b1))
        thief = split_frame(frame)
        assert thief is not None
        assert frame.member_limit == 1
        assert thief.member_idx == 1
        assert thief.member_limit == 2

    @given(small_graphs(min_vertices=3, max_vertices=10), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_split_never_duplicates_or_drops(self, g, steps):
        """Property: victim + thief enumerate exactly the original work."""
        if g.num_vertices == 0 or g.degree(0) == 0:
            return
        reference = drain(g, Frame((0,), (0,)))
        victim = Frame((0,), (0,))
        prefix = []
        # Advance a few steps first so the split happens mid-stream.
        for _ in range(min(steps, 1)):
            c, column = step(g, victim)
            if c is None:
                return
            if column:
                prefix.append(victim.vertices + (c,))
                child = Frame(victim.vertices + (c,), victim.columns + (column,))
                prefix.extend(drain(g, child))
        thief = split_frame(victim)
        remainder = drain(g, victim)
        if thief is not None:
            remainder += drain(g, thief)
        assert sorted(prefix + remainder) == sorted(reference)


class TestStealFromStack:
    def test_steals_shallowest(self):
        g = clique(5)
        deep = Frame((0, 1, 2), (0, 0b1, 0b11))
        shallow = Frame((0,), (0,))
        step(g, shallow)  # make cursor split possible
        stack = [shallow, deep]
        thief = steal_from_stack(stack)
        assert thief is not None
        assert thief.vertices == (0,)  # stolen from the shallow frame

    def test_empty_stack(self):
        assert steal_from_stack([]) is None


def splittable():
    """A frame with two unstarted members: always splittable."""
    return Frame((0, 1), (0, 0b1))


class TestStealer:
    #: The first 8 LFSR victims of PUs 0-3 over 16 slots, from the seeds
    #: (p * 0x9E3779B9 + 0x1234567) & 0xFFFFFFFF or 1.
    VICTIMS = {
        0: [0, 4, 9, 4, 6, 1, 13, 12],
        1: [15, 4, 7, 15, 11, 8, 9, 12],
        2: [13, 8, 2, 12, 4, 6, 2, 0],
        3: [15, 1, 1, 9, 0, 11, 7, 9],
    }

    @pytest.mark.parametrize("pu", sorted(VICTIMS))
    def test_lfsr_victims_pinned(self, pu):
        stealer = Stealer(pu, [[] for _ in range(16)], random=True)
        drawn = []
        for _ in range(8):
            assert stealer.steal(0) == -1  # every slot is idle
            drawn.append(stealer.lfsr % 16)
        assert drawn == self.VICTIMS[pu]

    def test_random_probes_exactly_one_slot(self):
        thief = 4
        stacks = [[] for _ in range(16)]
        stealer = Stealer(0, stacks, random=True)
        for victim in self.VICTIMS[0]:
            for slot, stack in enumerate(stacks):
                stack[:] = [] if slot == thief else [splittable()]
            got = stealer.steal(thief)
            split = [
                slot for slot, stack in enumerate(stacks)
                if slot != thief and stack[0].member_limit != 2
            ]
            if victim == thief:
                assert got == -1 and split == [] and stacks[thief] == []
            else:
                assert got == victim and split == [victim]
                assert len(stacks[thief]) == 1

    def test_random_skips_thief_and_idle_slots(self):
        stacks = [[] for _ in range(16)]
        stacks[4] = [splittable()]
        # PU 0 draws slot 0 first: the thief itself, although busy.
        stacks[0] = [splittable()]
        stealer = Stealer(0, stacks, random=True)
        assert stealer.steal(0) == -1
        assert len(stacks[0]) == 1
        # Then slot 4, busy: stolen.
        assert stealer.steal(1) == 4
        assert stacks[1][0].vertices == (0, 1)
        # Then slot 9, idle: nothing, although slots 0 and 4 are busy.
        assert stealer.steal(2) == -1
        assert stacks[2] == []

    def test_buffer_skips_stale_and_self_and_repushes_victim(self):
        stacks = [[] for _ in range(4)]
        stacks[0] = [splittable()]  # the thief's own (busy) stack
        stacks[3] = [splittable()]
        stealer = Stealer(0, stacks, random=False)
        thief = 0
        for slot in (2, 0, 3, 1):  # 2 went idle: a stale ID
            stealer.buffer.push(slot)
        assert stealer.steal(thief) == 3
        assert len(stacks[thief]) == 2  # the stolen frame tops the stack
        # 2 and 0 were popped and dropped; 1 stays; the victim is
        # re-pushed, then the thief is recorded busy.
        assert [stealer.buffer.pop() for _ in range(3)] == [1, 3, 0]
        assert stealer.lfsr == Stealer(0, [[]], random=False).lfsr

    def test_buffer_exhausted_steals_nothing(self):
        stacks = [[], [Frame((0,), (0,))]]  # busy but unsplittable
        stealer = Stealer(0, stacks, random=False)
        stealer.buffer.push(1)
        assert stealer.steal(0) == -1
        assert len(stealer.buffer) == 0
        assert stacks[0] == []
