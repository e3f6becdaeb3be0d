"""SimStats helpers: as_dict and registry publication."""

import pytest

from repro.accel.stats import SimStats
from repro.obs.metrics import MetricsRegistry


def _sample(scale=1):
    return SimStats(
        cycles=100 * scale,
        roots_dispatched=4 * scale,
        steals=2 * scale,
        steal_attempts=5 * scale,
        vertex_high_hits=10 * scale,
        vertex_low_hits=5 * scale,
        vertex_misses=1 * scale,
        edge_high_hits=20 * scale,
        edge_low_hits=8 * scale,
        edge_misses=2 * scale,
        compute_cycles=60 * scale,
        vertex_wait_cycles=15 * scale,
        edge_wait_cycles=25 * scale,
        pu_finish_cycles=[90 * scale, 100 * scale],
        pu_busy_cycles=[50 * scale, 70 * scale],
    )


class TestAsDict:
    def test_covers_every_field(self):
        stats = _sample()
        dump = stats.as_dict()
        assert dump["cycles"] == 100
        assert dump["pu_busy_cycles"] == [50, 70]
        assert set(dump) == {
            f for f in stats.__dataclass_fields__
        }

    def test_lists_are_copies(self):
        stats = _sample()
        dump = stats.as_dict()
        dump["pu_busy_cycles"].append(999)
        assert stats.pu_busy_cycles == [50, 70]


class TestPublish:
    def test_published_counters_match_stats(self):
        registry = MetricsRegistry()
        stats = _sample()
        stats.publish(registry)
        accesses = registry.get("sim_accesses_total")
        assert accesses.value(side="vertex", level="high") == 10
        assert accesses.total() == stats.vertex_accesses + stats.edge_accesses
        steals = registry.get("sim_steal_events_total")
        assert steals.value(outcome="hit") == 2
        assert steals.value(outcome="miss") == 3
        assert registry.get("sim_hit_ratio").value(side="edge") == (
            pytest.approx(stats.edge_hit_ratio)
        )
        assert registry.get("sim_load_imbalance").value() == (
            pytest.approx(stats.load_imbalance)
        )
