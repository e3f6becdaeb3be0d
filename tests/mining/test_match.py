"""Subgraph matching."""

import itertools

import pytest
from hypothesis import given, settings

from repro.graph.csr import CSRGraph
from repro.graph.generators import cycle, powerlaw_cluster
from repro.mining.apps import CliqueFinding, MotifCounting, SubgraphMatching
from repro.mining.apps.match import can_embed_induced
from repro.mining.engine import run_bfs, run_dfs
from repro.mining.patterns import canonical_code

from ..conftest import small_graphs

TRIANGLE = canonical_code([(0, 1), (1, 2), (0, 2)], 3)
WEDGE = canonical_code([(0, 1), (1, 2)], 3)
FOUR_CYCLE = canonical_code([(0, 1), (1, 2), (2, 3), (3, 0)], 4)
THREE_PATH = canonical_code([(0, 1), (1, 2), (2, 3)], 4)


def brute_force_matches(graph, pattern):
    """Count induced k-subsets whose canonical code equals the pattern."""
    count = 0
    k = pattern.size
    for subset in itertools.combinations(range(graph.num_vertices), k):
        edges = [
            (i, j)
            for i, j in itertools.combinations(range(k), 2)
            if graph.has_edge(subset[i], subset[j])
        ]
        labels = tuple(graph.label(v) for v in subset)
        use_labels = any(lab != 0 for lab in pattern.labels)
        code = canonical_code(edges, k, labels if use_labels else None)
        if code == pattern and code.is_connected:
            count += 1
    return count


class TestCanEmbedInduced:
    def test_wedge_in_triangle_is_not_induced(self):
        # A wedge is NOT an induced subgraph of a triangle (missing edge
        # would have to be absent).
        assert not can_embed_induced(WEDGE, TRIANGLE)

    def test_edge_in_triangle(self):
        edge = canonical_code([(0, 1)], 2)
        assert can_embed_induced(edge, TRIANGLE)

    def test_path_prefix_of_cycle(self):
        wedge = WEDGE
        assert can_embed_induced(wedge, FOUR_CYCLE)

    def test_too_large_rejected(self):
        assert not can_embed_induced(FOUR_CYCLE, TRIANGLE)

    def test_labels_respected(self):
        labeled_edge = canonical_code([(0, 1)], 2, (1, 1))
        labeled_triangle = canonical_code(
            [(0, 1), (1, 2), (0, 2)], 3, (0, 0, 0)
        )
        assert not can_embed_induced(labeled_edge, labeled_triangle)


class TestSubgraphMatching:
    def test_triangle_equals_3cf(self, pl_graph):
        match = run_dfs(pl_graph, SubgraphMatching(TRIANGLE))
        cf = run_dfs(pl_graph, CliqueFinding(3))
        assert match.num_matches == cf.num_cliques

    def test_wedge_equals_motif_census(self, pl_graph):
        match = run_dfs(pl_graph, SubgraphMatching(WEDGE))
        mc = run_dfs(pl_graph, MotifCounting(3))
        assert match.num_matches == mc.named_census().get("wedge", 0)

    def test_four_cycle_on_cycle_graph(self):
        assert run_dfs(cycle(4), SubgraphMatching(FOUR_CYCLE)).num_matches == 1
        assert run_dfs(cycle(6), SubgraphMatching(FOUR_CYCLE)).num_matches == 0

    def test_three_path_brute_force(self):
        # Same generator and density as the ``dense_graph`` fixture, on 40
        # vertices: the oracle enumerates C(40, 4) = 91,390 subsets instead
        # of C(120, 4) ~ 8.2 M.
        graph = powerlaw_cluster(40, 6, 0.7, seed=7)
        match = run_dfs(graph, SubgraphMatching(THREE_PATH))
        assert match.num_matches > 100  # non-trivial
        assert match.num_matches == brute_force_matches(graph, THREE_PATH)

    @given(small_graphs(max_vertices=10))
    @settings(max_examples=25, deadline=None)
    def test_random_graphs_four_cycle(self, g):
        match = run_dfs(g, SubgraphMatching(FOUR_CYCLE))
        assert match.num_matches == brute_force_matches(g, FOUR_CYCLE)

    def test_dfs_equals_bfs(self, pl_graph):
        a = run_dfs(pl_graph, SubgraphMatching(THREE_PATH)).num_matches
        b = run_bfs(pl_graph, SubgraphMatching(THREE_PATH)).num_matches
        assert a == b

    def test_labeled_matching(self):
        g = CSRGraph(
            6,
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
            labels=[1, 1, 1, 1, 1, 2],
        )
        all_ones = canonical_code([(0, 1), (1, 2), (0, 2)], 3, (1, 1, 1))
        match = run_dfs(g, SubgraphMatching(all_ones))
        assert match.num_matches == 1  # only the first triangle

    def test_disconnected_pattern_rejected(self):
        disconnected = canonical_code([(0, 1)], 3)
        with pytest.raises(ValueError, match="connected"):
            SubgraphMatching(disconnected)

    def test_pruning_reduces_candidates(self):
        g = powerlaw_cluster(200, 3, 0.4, seed=9)
        match = run_dfs(g, SubgraphMatching(FOUR_CYCLE))
        census = run_dfs(g, MotifCounting(4))
        # Matching prunes branches the full census must explore.
        assert match.candidates_checked <= census.candidates_checked

    def test_works_on_simulator(self, pl_graph):
        from repro.accel import GramerConfig, GramerSimulator

        app = SubgraphMatching(TRIANGLE)
        GramerSimulator(pl_graph, GramerConfig(onchip_entries=256)).run(app)
        ref = run_dfs(pl_graph, SubgraphMatching(TRIANGLE))
        assert app.num_matches == ref.num_matches
