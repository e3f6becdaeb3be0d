"""Set-associative cache and replacement policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ..differential.lamh_oracle import (
    LineState,
    LocalityPreservedPolicy,
    LRUPolicy,
    SetAssociativeCache,
)


class TestBasics:
    def test_cold_miss_then_hit(self):
        c = SetAssociativeCache(num_sets=4, ways=2)
        assert not c.access(10)
        assert c.access(10)
        assert c.stats.hits == 1 and c.stats.misses == 1

    def test_line_size_groups_addresses(self):
        c = SetAssociativeCache(num_sets=4, ways=2, line_size=4)
        assert not c.access(8)
        assert c.access(9)  # same line
        assert c.access(11)
        assert not c.access(12)  # next line

    def test_capacity(self):
        c = SetAssociativeCache(num_sets=8, ways=4, line_size=2)
        assert c.capacity_entries == 64

    def test_probe_does_not_mutate(self):
        c = SetAssociativeCache(num_sets=2, ways=1)
        c.access(0)
        hits_before = c.stats.hits
        assert c.probe(0)
        assert not c.probe(2)
        assert c.stats.hits == hits_before

    def test_flush(self):
        c = SetAssociativeCache(num_sets=2, ways=2)
        c.access(0)
        c.flush()
        assert not c.probe(0)
        assert not c.access(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(0, 1)
        with pytest.raises(ValueError):
            SetAssociativeCache(1, 0)

    def test_full_capacity_contiguous_no_conflicts(self):
        """Contiguous addresses exactly filling the cache never evict."""
        c = SetAssociativeCache(num_sets=8, ways=4, line_size=1)
        for address in range(32):
            c.access(address)
        for address in range(32):
            assert c.access(address)
        assert c.stats.evictions == 0

    @given(st.lists(st.integers(0, 200), min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_accounting_invariants(self, addresses):
        c = SetAssociativeCache(num_sets=4, ways=2, line_size=2)
        for a in addresses:
            c.access(a)
        assert c.stats.accesses == len(addresses)
        assert c.stats.hits + c.stats.misses == c.stats.accesses
        assert c.stats.evictions <= c.stats.misses
        assert len(c.resident_tags()) <= 8

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_immediate_rereference_always_hits(self, addresses):
        c = SetAssociativeCache(num_sets=4, ways=2, policy=LRUPolicy())
        for a in addresses:
            c.access(a)
            assert c.probe(a)


class TestLRU:
    def test_evicts_least_recent(self):
        c = SetAssociativeCache(num_sets=1, ways=2, policy=LRUPolicy())
        c.access(0)
        c.access(1)
        c.access(0)  # 1 is now LRU
        c.access(2)  # evicts 1
        assert c.probe(0) and c.probe(2) and not c.probe(1)

    def test_working_set_within_ways_all_hits(self):
        c = SetAssociativeCache(num_sets=1, ways=4, policy=LRUPolicy())
        for _round in range(3):
            for a in range(4):
                c.access(a)
        assert c.stats.misses == 4  # cold only


class TestLocalityPreserved:
    def test_lambda_zero_keeps_best_ranked(self):
        """λ=0: pure rank — the worst-ranked line is always the victim."""
        policy = LocalityPreservedPolicy(lam=0.0)
        c = SetAssociativeCache(num_sets=1, ways=2, policy=policy)
        c.access(0, rank=5)
        c.access(1, rank=100)
        c.access(2, rank=50)  # evicts rank-100 line
        assert c.probe(0) and c.probe(2) and not c.probe(1)

    def test_large_lambda_degenerates_to_lru(self):
        policy = LocalityPreservedPolicy(lam=1e9)
        c = SetAssociativeCache(num_sets=1, ways=2, policy=policy)
        c.access(0, rank=1000)
        c.access(1, rank=0)
        c.access(0, rank=1000)  # refresh 0; line 1 stalest
        c.access(2, rank=500)
        assert c.probe(0) and not c.probe(1)

    def test_balances_rank_and_recency(self):
        policy = LocalityPreservedPolicy(lam=1.0)
        lines = [
            LineState(valid=True, tag=0, rank=100, last_access=10),
            LineState(valid=True, tag=1, rank=0, last_access=1),
        ]
        # clock 12: scores are 100+2=102 vs 0+11=11 -> evict way 0.
        assert policy.victim(lines, clock=12) == 0
        # clock 200: scores 100+190=290 vs 0+199 = 199 -> still way 0.
        assert policy.victim(lines, clock=200) == 0

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            LocalityPreservedPolicy(lam=-1)

    def test_protects_hot_ranked_line_better_than_lru(self):
        """A globally-hot (low-rank) line survives a scan under Eq. 2."""
        def run(policy):
            c = SetAssociativeCache(num_sets=1, ways=4, policy=policy)
            hits = 0
            for round_index in range(50):
                hit = c.access(0, rank=0)  # the hot item
                hits += hit
                # Streaming scan of cold, low-priority data.
                for a in range(1 + round_index * 4, 5 + round_index * 4):
                    c.access(a, rank=1_000_000)
            return hits

        assert run(LocalityPreservedPolicy(lam=1.0)) > run(LRUPolicy())


class TestOtherPolicies:
    def test_policy_invalid_way_detected(self):
        class BrokenPolicy:
            name = "broken"

            def victim(self, lines, clock):
                return 99

        c = SetAssociativeCache(num_sets=1, ways=1, policy=BrokenPolicy())
        c.access(0)
        with pytest.raises(ValueError, match="invalid way"):
            c.access(1)
