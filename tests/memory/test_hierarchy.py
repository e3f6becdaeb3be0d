"""The locality-aware memory hierarchy (LAMH): sizing, counts, oracle."""

import numpy as np
import pytest

from repro.accel.config import GramerConfig
from repro.accel.stats import SimStats
from repro.graph.generators import powerlaw_cluster, star
from repro.memory.hierarchy import LAMHReport, default_tau
from repro.obs.metrics import MetricsRegistry

from ..differential.lamh_oracle import AccessLevel, Scratchpad, build_hierarchy


def _config(total_entries, **overrides):
    """The LAMH knobs of a design point; vertex lines hold one entry."""
    return GramerConfig(
        onchip_entries=total_entries, vertex_line_entries=1, **overrides
    )


class TestScratchpad:
    def test_holds_prefix(self):
        spm = Scratchpad(cutoff=5)
        assert spm.holds(0) and spm.holds(4)
        assert not spm.holds(5)

    def test_access_counts_hits(self):
        spm = Scratchpad(cutoff=2)
        assert spm.access(1)
        assert not spm.access(7)
        assert spm.hits == 1

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValueError):
            Scratchpad(cutoff=-1)


class TestDefaultTau:
    def test_paper_rule(self):
        g = powerlaw_cluster(100, 3, seed=0)
        data = g.num_vertices + len(g.neighbors)
        assert default_tau(g, data * 4) == 0.5  # capped at 50%
        assert default_tau(g, data) == pytest.approx(0.5)
        assert default_tau(g, data // 10) == pytest.approx(0.05, rel=0.2)


class TestHierarchyRouting:
    def _graph(self):
        return powerlaw_cluster(200, 3, 0.3, seed=1)

    def test_high_priority_always_hits(self):
        g = self._graph()
        h = build_hierarchy(g, _config(len(g.neighbors) // 5))
        cutoff = h.vertex_side.scratchpad.cutoff
        # identity rank: vertices below cutoff are pinned.
        for v in range(cutoff):
            assert h.access_vertex(v) is AccessLevel.HIGH
        assert h.vertex_side.stats.misses == 0

    def test_low_priority_miss_then_hit(self):
        g = self._graph()
        h = build_hierarchy(g, _config(len(g.neighbors) // 5))
        v = g.num_vertices - 1  # worst rank, surely low priority
        assert h.access_vertex(v) is AccessLevel.MISS
        assert h.access_vertex(v) is AccessLevel.LOW_HIT

    def test_edge_priority_from_source_rank(self):
        g = self._graph()
        h = build_hierarchy(g, _config(len(g.neighbors) // 5))
        edge_cutoff = h.edge_side.scratchpad.cutoff
        assert edge_cutoff > 0
        # An edge slot owned by rank-0 vertex is pinned.
        src = 0  # identity rank
        index = int(g.offsets[src])
        if g.degree(src):
            assert h.access_edge(index, src) is AccessLevel.HIGH

    def test_hit_ratios_keys(self):
        g = self._graph()
        h = build_hierarchy(g, _config(100))
        h.access_vertex(0)
        assert set(h.hit_ratios()) == {"vertex", "edge"}

    def test_capacity_reporting(self):
        g = self._graph()
        h = build_hierarchy(g, _config(400))
        assert h.capacity_entries > 0


class TestVariants:
    def _graph(self):
        return powerlaw_cluster(300, 3, 0.3, seed=2)

    def test_uniform_has_no_pinning(self):
        g = self._graph()
        h = build_hierarchy(g, _config(300, low_policy="uniform"))
        assert h.vertex_side.scratchpad.cutoff == 0
        assert h.edge_side.scratchpad.cutoff == 0

    def test_lru_variant_same_split_as_lamh(self):
        g = self._graph()
        lamh = build_hierarchy(g, _config(300, low_policy="locality"))
        static = build_hierarchy(g, _config(300, low_policy="lru"))
        assert (
            lamh.vertex_side.scratchpad.cutoff
            == static.vertex_side.scratchpad.cutoff
        )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="low_policy"):
            _config(100, low_policy="plru")

    def test_tau_override(self):
        g = self._graph()
        h = build_hierarchy(g, _config(100, tau=0.10))
        assert h.vertex_side.scratchpad.cutoff == round(0.10 * g.num_vertices)

    def test_bad_tau_rejected(self):
        with pytest.raises(ValueError, match="tau"):
            _config(100, tau=0.0)

    def test_bad_rank_length_rejected(self):
        g = self._graph()
        with pytest.raises(ValueError, match="vertex_rank"):
            build_hierarchy(g, _config(100), vertex_rank=np.arange(5))

    def test_rank_mapping_controls_pinning(self):
        g = star(20)
        # Rank the hub worst: it must NOT be pinned.
        rank = np.zeros(21, dtype=np.int64)
        rank[0] = 20
        rank[1:] = np.arange(20)
        h = build_hierarchy(g, _config(20, tau=0.25), vertex_rank=rank)
        assert h.access_vertex(1) is AccessLevel.HIGH  # rank 0
        first = h.access_vertex(0)
        assert first is AccessLevel.MISS  # hub has worst rank


class TestReport:
    STATS = SimStats(
        vertex_high_hits=5,
        vertex_low_hits=3,
        vertex_misses=2,
        edge_high_hits=1,
        edge_low_hits=6,
        edge_misses=4,
    )

    def test_split_caches_report_per_side(self):
        report = LAMHReport(self.STATS, [0, 2, 1], [4])
        assert report.low_cache_pressure() == {
            "vertex": {
                "sets": 3, "evictions": 3, "max": 2, "mean": 1.0,
                "hot_sets": [(1, 2), (2, 1)],
            },
            "edge": {
                "sets": 1, "evictions": 4, "max": 4, "mean": 4.0,
                "hot_sets": [(0, 4)],
            },
        }
        registry = MetricsRegistry()
        report.publish(registry)
        accesses = registry.get("memory_accesses_total")
        assert accesses.value(side="edge", level="low") == 6
        assert registry.get("memory_hit_ratio").value(side="vertex") == 0.8
        events = registry.get("cache_events_total")
        assert events.value(cache="edge", event="eviction") == 4

    def test_shared_cache_reported_once(self):
        """The uniform baseline's one cache sums both sides' traffic."""
        report = LAMHReport(self.STATS, [1, 0], None)
        assert list(report.low_cache_pressure()) == ["shared"]
        registry = MetricsRegistry()
        report.publish(registry)
        events = registry.get("cache_events_total")
        assert events.value(cache="shared", event="hit") == 9
        assert events.value(cache="shared", event="miss") == 6
        assert registry.get("cache_hit_ratio").value(cache="shared") == 0.6


class TestLAMHBeatsLRUOnSkewedTraffic:
    """Fig. 12's ordering under hardware-like interleaved slot streams.

    A single DFS walk has short reuse distances that flatter LRU; the
    accelerator interleaves up to 128 extension paths, multiplying reuse
    distances.  The test replays 96 round-robin-interleaved per-root-group
    streams, which is the traffic the Fig. 12 comparison actually sees.
    """

    def _interleaved_trace(self, g, streams=96):
        from repro.mining.apps import MotifCounting
        from repro.mining.engine import run_dfs

        recorded = []
        for start in range(streams):
            rec = _RecordingAdapter(g)
            run_dfs(
                g,
                MotifCounting(4),
                mem=rec,
                roots=range(start, g.num_vertices, streams),
            )
            recorded.append(rec.ops)
        cursors = [0] * len(recorded)
        out = []
        alive = True
        while alive:
            alive = False
            for k, ops in enumerate(recorded):
                if cursors[k] < len(ops):
                    out.append(ops[cursors[k]])
                    cursors[k] += 1
                    alive = True
        return out

    def test_hit_ratio_ordering(self):
        from repro.graph.reorder import rank_permutation
        from repro.locality.occurrence import occurrence_numbers

        g = powerlaw_cluster(180, 4, 0.6, seed=3)
        rank = rank_permutation(occurrence_numbers(g, 1))
        budget = (g.num_vertices + len(g.neighbors)) // 20
        trace = self._interleaved_trace(g)

        def replay(policy):
            h = build_hierarchy(
                g,
                GramerConfig(onchip_entries=budget, low_policy=policy),
                vertex_rank=rank,
            )
            for kind, a, b in trace:
                if kind == 0:
                    h.access_vertex(a)
                else:
                    h.access_edge(a, b)
            v = h.vertex_side.stats
            e = h.edge_side.stats
            total = (v.high_hits + v.low_hits + e.high_hits + e.low_hits) / (
                v.accesses + e.accesses
            )
            return v.hit_ratio, e.hit_ratio, total

        lamh_v, lamh_e, lamh_t = replay("locality")
        static_v, static_e, static_t = replay("lru")
        uniform_v, uniform_e, uniform_t = replay("uniform")
        # The big Fig. 12 effect: pinning + isolation beat a uniform cache.
        assert lamh_v > static_v > uniform_v
        assert lamh_t > static_t > uniform_t
        # The replacement-policy refinement is a 1-6% effect in the paper;
        # at unit-test scale it must at least not regress materially.
        assert lamh_e >= static_e - 0.02
        assert lamh_e >= uniform_e - 0.02


class _RecordingAdapter:
    """MemoryModel that records the engine's access stream, decoded.

    Vertex codes become ``(0, vid, 0)``; edge codes become
    ``(1, index, src)`` with ``src`` the slot's CSR owner.
    """

    def __init__(self, graph):
        self.ops = []
        self.depth = 0
        self._num_vertices = graph.num_vertices
        self._owner = np.repeat(
            np.arange(graph.num_vertices), graph.degrees()
        ).tolist()

    def access(self, code):
        n = self._num_vertices
        if code < n:
            self.ops.append((0, code, 0))
        else:
            self.ops.append((1, code - n, self._owner[code - n]))
