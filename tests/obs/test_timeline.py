"""The windowed timeline sampler: boundaries, deltas, partial windows."""

import pytest

from repro.obs.timeline import TimelineSampler


class FakeStats:
    """Mutable counter bag mimicking SimStats.as_dict()."""

    def __init__(self):
        self.counters = {
            "vertex_high_hits": 0,
            "vertex_low_hits": 0,
            "vertex_misses": 0,
            "edge_high_hits": 0,
            "edge_low_hits": 0,
            "edge_misses": 0,
            "compute_cycles": 0,
            "vertex_wait_cycles": 0,
            "edge_wait_cycles": 0,
            "steals": 0,
            "steal_attempts": 0,
            "roots_dispatched": 0,
        }

    def bump(self, **deltas):
        for key, amount in deltas.items():
            self.counters[key] += amount

    def as_dict(self):
        # Non-int values must be ignored by the snapshot filter.
        return {**self.counters, "per_pu": [1, 2], "flag": True}


class TestTimelineSampler:
    def test_window_cycles_must_be_positive(self):
        with pytest.raises(ValueError):
            TimelineSampler(0)

    def test_deltas_are_per_window_not_cumulative(self):
        sampler = TimelineSampler(100)
        stats = FakeStats()
        active_slots = 3
        sampler.begin(stats)

        stats.bump(vertex_high_hits=3, vertex_misses=1, steals=2)
        closed = sampler.advance(100, stats, active_slots)
        assert len(closed) == 1
        first = closed[0]
        assert (first.start_cycle, first.end_cycle) == (0, 100)
        assert first.vertex_accesses == 4
        assert first.vertex_hits == 3
        assert first.vertex_hit_ratio == pytest.approx(0.75)
        assert first.dram_accesses == 1
        assert first.steals == 2
        assert first.active_slots == 3

        stats.bump(edge_low_hits=5)
        second = sampler.advance(200, stats, active_slots)[0]
        assert second.vertex_accesses == 0  # only the fresh delta
        assert second.edge_hits == 5
        assert second.edge_hit_ratio == 1.0

    def test_no_window_closes_before_boundary(self):
        sampler = TimelineSampler(100)
        stats = FakeStats()
        sampler.begin(stats)
        assert sampler.advance(99, stats, 0) == []
        assert sampler.windows == []

    def test_clock_jump_closes_multiple_windows(self):
        sampler = TimelineSampler(10)
        stats = FakeStats()
        sampler.begin(stats)
        stats.bump(compute_cycles=7)
        closed = sampler.advance(35, stats, 0)
        assert [(w.start_cycle, w.end_cycle) for w in closed] == [
            (0, 10),
            (10, 20),
            (20, 30),
        ]
        # The whole delta lands in the first closed window of the jump.
        assert closed[0].compute_cycles == 7
        assert closed[1].compute_cycles == 0

    def test_finish_emits_partial_final_window(self):
        sampler = TimelineSampler(100)
        stats = FakeStats()
        sampler.begin(stats)
        stats.bump(edge_misses=2)
        sampler.advance(100, stats, 0)
        stats.bump(edge_misses=3)
        closed = sampler.finish(130, stats, 0)
        assert [(w.start_cycle, w.end_cycle) for w in closed] == [(100, 130)]
        assert closed[0].dram_accesses == 3
        # Windows partition [0, 130) exactly.
        spans = [(w.start_cycle, w.end_cycle) for w in sampler.windows]
        assert spans == [(0, 100), (100, 130)]

    def test_finish_on_short_run_yields_one_window(self):
        sampler = TimelineSampler(1000)
        stats = FakeStats()
        sampler.begin(stats)
        stats.bump(vertex_high_hits=1)
        closed = sampler.finish(40, stats, 4)
        assert len(closed) == 1 and len(sampler.windows) == 1
        assert closed[0].end_cycle == 40
        assert closed[0].vertex_hits == 1

    def test_finish_exactly_on_boundary_adds_no_empty_tail(self):
        sampler = TimelineSampler(50)
        stats = FakeStats()
        sampler.begin(stats)
        sampler.advance(50, stats, 0)
        closed = sampler.finish(50, stats, 0)
        assert closed == []
        assert len(sampler.windows) == 1

    def test_as_dict_includes_derived_ratios(self):
        sampler = TimelineSampler(10)
        stats = FakeStats()
        sampler.begin(stats)
        stats.bump(vertex_high_hits=1, vertex_misses=1)
        window = sampler.finish(5, stats, 0)[0]
        dump = window.as_dict()
        assert dump["vertex_hit_ratio"] == pytest.approx(0.5)
        assert dump["end_cycle"] == 5.0
