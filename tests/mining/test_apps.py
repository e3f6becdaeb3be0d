"""Applications: CF, MC, FSM primitives and the factory."""

import math

import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import clique, cycle, powerlaw_cluster, random_labels
from repro.mining.apps import (
    CliqueFinding,
    FrequentSubgraphMining,
    MotifCounting,
    make_app,
)
from repro.mining.engine import run_bfs, run_dfs
from repro.mining.patterns import canonical_code


class TestCliqueFinding:
    def test_counts_only_target_size(self):
        app = run_dfs(clique(6), CliqueFinding(4))
        assert set(app.patterns_by_size) == {4}
        assert app.num_cliques == math.comb(6, 4)

    def test_summary(self):
        app = run_dfs(clique(4), CliqueFinding(3))
        assert app.summary() == {"num_cliques": 4, "k": 3}

    def test_intermediate_embeddings_are_cliques(self):
        app = run_dfs(powerlaw_cluster(80, 4, 0.5, seed=1), CliqueFinding(4))
        # 2- and 3-vertex intermediates were accepted, so they were cliques.
        assert app.embeddings_by_size[2] > 0

    def test_max_vertices_validated(self):
        with pytest.raises(ValueError):
            CliqueFinding(1)


class TestMotifCounting:
    def test_census_at_intermediate_size(self):
        app = run_dfs(clique(5), MotifCounting(4))
        assert app.named_census(3) == {"triangle": math.comb(5, 3)}

    def test_named_census_default_max_size(self):
        app = run_dfs(cycle(5), MotifCounting(3))
        assert app.named_census() == {"wedge": 5}

    def test_reset_clears(self):
        fresh = MotifCounting(3)
        assert fresh.embeddings_by_size == {}
        assert fresh.patterns_by_size == {}
        # Reset straight after the run, while its shapes are still pending.
        app = run_dfs(cycle(5), MotifCounting(3))
        app.reset()
        assert app.motif_census() == {}
        assert app.embeddings_by_size == {}
        assert app.candidates_checked == 0
        graph = powerlaw_cluster(30, 3, 0.5, seed=1)
        reused = run_dfs(graph, app).result()
        assert reused == run_dfs(graph, MotifCounting(3)).result()
        assert list(reused.patterns_by_size[3].items()) == list(
            run_dfs(graph, MotifCounting(3)).patterns_by_size[3].items()
        )

    def test_reset_and_reuse_on_another_labelled_graph(self):
        first = labeled_triangle_graph()
        second = random_labels(powerlaw_cluster(30, 3, 0.5, seed=1), 3, seed=2)
        app = run_dfs(first, FrequentSubgraphMining(1))
        app.reset()
        reused = run_dfs(second, app).result()
        fresh = run_dfs(second, FrequentSubgraphMining(1)).result()
        assert reused == fresh
        assert list(reused.patterns_by_size[3].items()) == list(
            fresh.patterns_by_size[3].items()
        )


def labeled_triangle_graph():
    """Two labeled triangles plus one rare-labeled triangle."""
    edges = [
        (0, 1), (1, 2), (0, 2),
        (3, 4), (4, 5), (3, 5),
        (6, 7), (7, 8), (6, 8),
    ]
    labels = [0, 0, 0, 0, 0, 0, 1, 1, 1]
    return CSRGraph(9, edges, labels=labels)


class TestFSM:
    def test_threshold_filters_patterns(self):
        g = labeled_triangle_graph()
        app = run_dfs(g, FrequentSubgraphMining(threshold=2, max_vertices=3))
        frequent = app.frequent_patterns(3)
        # The all-zero triangle occurs twice (>= 2); the label-1 one once.
        zero_triangle = canonical_code(
            [(0, 1), (1, 2), (0, 2)], 3, (0, 0, 0)
        )
        one_triangle = canonical_code(
            [(0, 1), (1, 2), (0, 2)], 3, (1, 1, 1)
        )
        assert frequent[zero_triangle] == 2
        assert one_triangle not in frequent

    def test_size2_supports_exact(self):
        g = labeled_triangle_graph()
        app = FrequentSubgraphMining(threshold=1, max_vertices=3)
        app.prepare(g)
        edge00 = canonical_code([(0, 1)], 2, (0, 0))
        edge11 = canonical_code([(0, 1)], 2, (1, 1))
        assert app._edge_pattern_support[edge00] == 6
        assert app._edge_pattern_support[edge11] == 3

    def test_aggregate_filter_prunes_infrequent_edges(self):
        g = labeled_triangle_graph()
        pruned = run_dfs(g, FrequentSubgraphMining(threshold=5, max_vertices=3))
        # Only the label-0 edge pattern (support 6) survives extension, so no
        # label-1 triangles are even enumerated.
        assert all(
            set(code.labels) == {0}
            for code in pruned.patterns_by_size.get(3, {})
        )

    def test_dfs_equals_bfs(self):
        g = random_labels(powerlaw_cluster(80, 3, 0.4, seed=2), 3, seed=1)
        a = run_dfs(g, FrequentSubgraphMining(threshold=3)).frequent_patterns()
        b = run_bfs(g, FrequentSubgraphMining(threshold=3)).frequent_patterns()
        assert a == b

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            FrequentSubgraphMining(threshold=0)

    def test_frequent_patterns_size2(self):
        g = labeled_triangle_graph()
        app = run_dfs(g, FrequentSubgraphMining(threshold=4, max_vertices=3))
        assert len(app.frequent_patterns(2)) == 1  # only the 0-0 edge

    def test_summary_fields(self):
        g = labeled_triangle_graph()
        app = run_dfs(g, FrequentSubgraphMining(threshold=2, max_vertices=3))
        summary = app.summary()
        assert summary["threshold"] == 2
        assert summary["num_frequent_patterns"] >= 1


class TestMakeApp:
    def test_cf(self):
        app = make_app("4-CF")
        assert isinstance(app, CliqueFinding)
        assert app.max_vertices == 4

    def test_mc(self):
        app = make_app("3-mc")
        assert isinstance(app, MotifCounting)
        assert app.max_vertices == 3

    def test_fsm_with_k_suffix(self):
        app = make_app("FSM-2K")
        assert isinstance(app, FrequentSubgraphMining)
        assert app.threshold == 2000

    def test_fsm_plain(self):
        assert make_app("FSM-250").threshold == 250

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown application"):
            make_app("7-XYZ")


class TestMiningResult:
    def test_snapshot_immutable_view(self):
        app = run_dfs(clique(4), MotifCounting(3))
        result = app.result()
        assert result.total_embeddings == sum(
            result.embeddings_by_size.values()
        )
        triangle = canonical_code([(0, 1), (1, 2), (0, 2)], 3)
        assert result.pattern_count(triangle) == 4

    def test_pattern_count_missing_is_zero(self):
        app = run_dfs(cycle(5), MotifCounting(3))
        triangle = canonical_code([(0, 1), (1, 2), (0, 2)], 3)
        assert app.result().pattern_count(triangle) == 0
