"""Trace capture and the extension-locality analyses (Figs. 5, 8a)."""

from collections import Counter

import pytest

from repro.graph.generators import cycle, powerlaw_cluster, star
from repro.locality.analysis import (
    heuristic_accuracy,
    locality_curve,
    top_access_share,
)
from repro.locality.trace import AccessCounter, IterationTrace
from repro.mining.apps import MotifCounting
from repro.mining.engine import run_dfs


class TestAccessCounter:
    def test_totals(self):
        mem = AccessCounter(10)  # codes >= 10 are edge slots
        mem.access(1)
        mem.access(1)
        mem.access(10 + 5)
        assert mem.total_vertex_accesses == 2
        assert mem.total_edge_accesses == 1
        assert mem.vertex_counts[1] == 2


class TestIterationTrace:
    def test_buckets_by_depth(self):
        trace = IterationTrace(10)  # codes >= 10 are edge slots
        trace.depth = 1
        trace.access(0)
        trace.depth = 2
        trace.access(0)
        trace.access(10 + 3)
        assert trace.iterations == [1, 2]
        assert trace.vertex_counts(1)[0] == 1
        assert trace.vertex_counts(2)[0] == 1
        assert trace.edge_counts(2)[3] == 1


class TestTopAccessShare:
    def test_uniform(self):
        counts = Counter({i: 1 for i in range(100)})
        assert top_access_share(counts, 100, 0.05) == pytest.approx(0.05)

    def test_concentrated(self):
        counts = Counter({0: 95, 1: 5})
        assert top_access_share(counts, 100, 0.05) == pytest.approx(1.0)

    def test_empty(self):
        assert top_access_share(Counter(), 10, 0.1) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            top_access_share(Counter(), 10, 0.0)
        with pytest.raises(ValueError):
            top_access_share(Counter(), 0, 0.5)


class TestLocalityCurve:
    def test_skewed_graph_concentrates_over_iterations(self):
        """Fig. 5's core claim: top-5% share grows with embedding size."""
        g = powerlaw_cluster(400, 3, 0.4, seed=5)
        trace = IterationTrace(g.num_vertices)
        run_dfs(g, MotifCounting(4), mem=trace)
        curve = locality_curve(g, trace, fraction=0.05)
        vshare = curve.vertex_share_by_iteration
        assert vshare[3] > vshare[1]
        # Far above the uniform baseline of 5% by iteration 3 (the paper's
        # graphs, with thousand-degree hubs, reach 40-95%; the proxy-scale
        # hubs here concentrate less in absolute terms).
        assert vshare[3] > 0.2
        eshare = curve.edge_share_by_iteration
        # "The top 5% edges start from a fixed access frequency of 5%" —
        # every edge is streamed exactly once when 1-vertex embeddings
        # extend, so iteration 1 is exactly uniform.
        assert eshare[1] == pytest.approx(0.05, abs=0.01)
        assert eshare[3] > eshare[1]

    def test_uniform_graph_less_concentrated(self):
        def share_at_2(g):
            trace = IterationTrace(g.num_vertices)
            run_dfs(g, MotifCounting(3), mem=trace)
            return locality_curve(g, trace).vertex_share_by_iteration[2]

        skewed = share_at_2(powerlaw_cluster(400, 3, 0.4, seed=5))
        uniform = share_at_2(cycle(400))
        assert skewed > 2 * uniform
        assert uniform < 0.10  # a cycle has nothing to concentrate on


class TestHeuristicAccuracy:
    def test_on1_beats_on0_on_star_of_stars(self):
        """ON1 sees through to neighbours' degrees; ON0 cannot."""
        g = powerlaw_cluster(300, 3, 0.5, seed=6)
        trace = IterationTrace(g.num_vertices)
        run_dfs(g, MotifCounting(4), mem=trace)
        acc0 = heuristic_accuracy(g, trace, hops=0)
        acc1 = heuristic_accuracy(g, trace, hops=1)
        # Averaged over iterations, ON1 should not be worse.
        mean0 = sum(acc0.values()) / len(acc0)
        mean1 = sum(acc1.values()) / len(acc1)
        assert mean1 >= mean0 - 0.05

    def test_accuracy_bounds(self):
        g = star(20)
        trace = IterationTrace(g.num_vertices)
        run_dfs(g, MotifCounting(3), mem=trace)
        for value in heuristic_accuracy(g, trace, hops=1).values():
            assert 0.0 <= value <= 1.0

    def test_high_accuracy_on_skewed(self):
        """Fig. 8a: 1-hop ON accuracy is high (paper: >80%)."""
        g = powerlaw_cluster(400, 3, 0.4, seed=7)
        trace = IterationTrace(g.num_vertices)
        run_dfs(g, MotifCounting(4), mem=trace)
        acc = heuristic_accuracy(g, trace, hops=1)
        # Iteration 1 is degenerate: every vertex is touched exactly once
        # (uniform counts), so the observed "top set" is tie-broken noise.
        # The meaningful iterations are the deep ones, where the paper
        # reports > 80% for 1-hop ON; proxy-scale hubs give somewhat less.
        assert acc[2] >= 0.45
        assert acc[3] >= 0.5
        assert acc[3] >= acc[1]  # prediction improves as locality builds
