"""Model-based property tests: the cache vs reference implementations.

Two oracles:

* a per-set OrderedDict (most recently used last) — the textbook
  definition of a set-associative LRU cache, and
* an independent transcription of Equation 2 for the locality-preserved
  (LAMH) policy: ``victim = argmax Rank·scale + λ·(clock − last_access)``.

Every access sequence must produce the identical hit/miss sequence.
"""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from ..differential.lamh_oracle import (
    AccessLevel,
    LineState,
    LocalityPreservedPolicy,
    LRUPolicy,
    MemorySide,
    SetAssociativeCache,
)


class ReferenceLRUCache:
    """Oracle: per-set OrderedDict LRU."""

    def __init__(self, num_sets: int, ways: int, line_size: int) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self.line_size = line_size
        self.sets = [OrderedDict() for _ in range(num_sets)]

    def access(self, address: int) -> bool:
        tag = address // self.line_size
        index = tag % self.num_sets
        resident = self.sets[index]
        if tag in resident:
            resident.move_to_end(tag)
            return True
        if len(resident) == self.ways:
            resident.popitem(last=False)
        resident[tag] = True
        return False


@given(
    st.integers(1, 4),  # num_sets
    st.integers(1, 4),  # ways
    st.integers(1, 4),  # line_size
    st.lists(st.integers(0, 120), min_size=1, max_size=400),
)
@settings(max_examples=120, deadline=None)
def test_lru_cache_matches_reference(num_sets, ways, line_size, addresses):
    cache = SetAssociativeCache(
        num_sets=num_sets, ways=ways, line_size=line_size, policy=LRUPolicy()
    )
    reference = ReferenceLRUCache(num_sets, ways, line_size)
    for address in addresses:
        assert cache.access(address) == reference.access(address), address


@given(st.lists(st.integers(0, 60), min_size=1, max_size=300))
@settings(max_examples=60, deadline=None)
def test_resident_set_matches_reference(addresses):
    cache = SetAssociativeCache(num_sets=2, ways=3, policy=LRUPolicy())
    reference = ReferenceLRUCache(2, 3, 1)
    for address in addresses:
        cache.access(address)
        reference.access(address)
    expected = {tag for s in reference.sets for tag in s}
    assert cache.resident_tags() == expected


# ---------------------------------------------------------------------------
# LAMH locality-preserved replacement (Equation 2)
# ---------------------------------------------------------------------------

_lam = st.floats(0.0, 16.0, allow_nan=False, allow_infinity=False)
_rank_scale = st.floats(0.0625, 8.0, allow_nan=False, allow_infinity=False)


def _eq2_scores(lines, clock, lam, rank_scale):
    # Operand order matters for float bit-identity with the policy.
    return [
        line.rank * rank_scale + lam * (clock - line.last_access)
        for line in lines
    ]


@st.composite
def _full_sets(draw):
    """A fully valid cache set plus a clock not older than any access."""
    ways = draw(st.integers(1, 8))
    lines = [
        LineState(
            valid=True,
            tag=way,
            rank=draw(st.integers(0, 500)),
            last_access=draw(st.integers(0, 100)),
        )
        for way in range(ways)
    ]
    clock = max(line.last_access for line in lines) + draw(st.integers(0, 50))
    return lines, clock


@given(_full_sets(), _lam, _rank_scale)
@settings(max_examples=200, deadline=None)
def test_locality_victim_is_first_argmax_of_equation2(set_and_clock, lam, scale):
    """Victim maximality: the chosen way maximises Rank·scale + λ·Rec,
    and ties resolve to the lowest way index (max() keeps the first)."""
    lines, clock = set_and_clock
    policy = LocalityPreservedPolicy(lam=lam, rank_scale=scale)
    victim = policy.victim(lines, clock)
    scores = _eq2_scores(lines, clock, lam, scale)
    assert scores[victim] == max(scores)
    assert victim == scores.index(max(scores))


@given(_full_sets(), _rank_scale)
@settings(max_examples=100, deadline=None)
def test_locality_with_zero_lambda_is_rank_only(set_and_clock, scale):
    """λ = 0 removes recency: the victim is the first highest-rank line."""
    lines, clock = set_and_clock
    policy = LocalityPreservedPolicy(lam=0.0, rank_scale=scale)
    victim = policy.victim(lines, clock)
    ranks = [line.rank for line in lines]
    assert ranks[victim] == max(ranks)
    assert victim == ranks.index(max(ranks))


@given(_full_sets(), st.floats(0.5, 16.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_locality_recency_monotonicity(set_and_clock, lam):
    """Touching a line now (recency 0) never turns it *into* the victim
    while another line is strictly better on Equation 2."""
    lines, clock = set_and_clock
    policy = LocalityPreservedPolicy(lam=lam, rank_scale=1.0)
    before = policy.victim(lines, clock)
    for way, line in enumerate(lines):
        if way == before or len(lines) == 1:
            continue
        old = line.last_access
        line.last_access = clock  # most recent possible touch
        after = policy.victim(lines, clock)
        scores = _eq2_scores(lines, clock, lam, 1.0)
        if after == way:
            # Only acceptable if it still genuinely maximises the score.
            assert scores[way] == max(scores)
        line.last_access = old


@given(st.lists(st.integers(0, 100), min_size=1, max_size=100))
@settings(max_examples=60, deadline=None)
def test_locality_equal_ranks_degenerates_to_lru(addresses):
    """With all ranks equal and λ > 0, Equation 2 orders lines purely by
    staleness — byte-for-byte the LRU hit/miss sequence."""
    locality = SetAssociativeCache(
        num_sets=2,
        ways=3,
        policy=LocalityPreservedPolicy(lam=1.0, rank_scale=1.0),
    )
    lru = SetAssociativeCache(num_sets=2, ways=3, policy=LRUPolicy())
    for address in addresses:
        assert locality.access(address, rank=7) == lru.access(address, rank=7)


class ReferenceLocalityCache:
    """Oracle: slot-list transcription of §IV-B + Equation 2.

    Slots mirror way order (first invalid way fills first; evictions reuse
    the slot in place), so score ties resolve to the same way as the real
    cache's first-max scan.
    """

    def __init__(self, num_sets, ways, lam, rank_scale):
        self.num_sets = num_sets
        self.lam = lam
        self.rank_scale = rank_scale
        self.sets = [[None] * ways for _ in range(num_sets)]
        self.clock = 0

    def access(self, address, rank):
        self.clock += 1
        tag = address
        slots = self.sets[tag % self.num_sets]
        for way, slot in enumerate(slots):
            if slot is not None and slot[0] == tag:
                slots[way] = (tag, slot[1], self.clock)
                return True
        for way, slot in enumerate(slots):
            if slot is None:
                slots[way] = (tag, rank, self.clock)
                return False
        scores = [
            slot[1] * self.rank_scale + self.lam * (self.clock - slot[2])
            for slot in slots
        ]
        slots[scores.index(max(scores))] = (tag, rank, self.clock)
        return False


@given(
    st.integers(1, 3),  # num_sets
    st.integers(1, 3),  # ways
    st.sampled_from([0.0, 0.5, 1.0, 4.0]),  # lam
    st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 9)),
        min_size=1,
        max_size=250,
    ),
)
@settings(max_examples=120, deadline=None)
def test_locality_cache_matches_reference(num_sets, ways, lam, accesses):
    """The full cache against the oracle: identical hit/miss sequences.

    Ranks are distinct per address (rank = address % 10 would collide, so
    rank is drawn with the address and kept stable per tag by the oracle).
    """
    cache = SetAssociativeCache(
        num_sets=num_sets,
        ways=ways,
        policy=LocalityPreservedPolicy(lam=lam, rank_scale=1.0),
    )
    reference = ReferenceLocalityCache(num_sets, ways, lam, 1.0)
    rank_of = {}
    for address, rank in accesses:
        rank = rank_of.setdefault(address, rank)  # stable rank per address
        assert cache.access(address, rank) == reference.access(address, rank), (
            address,
            rank,
        )


@given(
    st.integers(0, 12),  # scratchpad cutoff
    st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 20)),
        min_size=1,
        max_size=200,
    ),
)
@settings(max_examples=100, deadline=None)
def test_pinned_scratchpad_entries_never_evicted(cutoff, accesses):
    """Every access with rank < cutoff is served HIGH, always — pinned
    entries are never displaced by any interleaved low-priority traffic,
    and they never occupy (or evict from) the low cache."""
    side = MemorySide(
        "vertex",
        high_cutoff_rank=cutoff,
        low_cache=SetAssociativeCache(
            num_sets=2, ways=2, policy=LocalityPreservedPolicy()
        ),
    )
    for address, rank in accesses:
        level = side.access(address, rank)
        if rank < cutoff:
            assert level is AccessLevel.HIGH
        else:
            assert level is not AccessLevel.HIGH
    # The low cache never saw a pinned request, so no pinned address with
    # rank < cutoff can have claimed or evicted a cache line.
    assert side.stats.high_hits == sum(1 for _, r in accesses if r < cutoff)
