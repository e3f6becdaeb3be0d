"""Vertex-centric applications against networkx oracles."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings

from repro.graph.generators import cycle, path, star
from repro.processing import (
    BreadthFirstSearch,
    ConnectedComponents,
    IterationLimitError,
    PageRank,
    SingleSourceShortestPaths,
    run_vertex_program,
)

from ..conftest import small_graphs


def to_networkx(graph):
    g = nx.Graph(list(graph.edges()))
    g.add_nodes_from(range(graph.num_vertices))
    return g


class TestBFS:
    def test_path_distances(self):
        g = path(5)
        values, _ = run_vertex_program(g, BreadthFirstSearch(0))
        assert values == [0, 1, 2, 3, 4]

    def test_unreachable_stays_infinite(self):
        from repro.graph.csr import CSRGraph

        g = CSRGraph(4, [(0, 1)])
        values, _ = run_vertex_program(g, BreadthFirstSearch(0))
        assert values[0] == 0 and values[1] == 1
        assert math.isinf(values[2]) and math.isinf(values[3])

    def test_matches_networkx(self, pl_graph):
        values, _ = run_vertex_program(pl_graph, BreadthFirstSearch(0))
        expected = nx.single_source_shortest_path_length(
            to_networkx(pl_graph), 0
        )
        for v in range(pl_graph.num_vertices):
            if v in expected:
                assert values[v] == expected[v]
            else:
                assert math.isinf(values[v])

    @given(small_graphs(min_vertices=2, max_vertices=12))
    @settings(max_examples=30, deadline=None)
    def test_random_graphs(self, g):
        values, _ = run_vertex_program(g, BreadthFirstSearch(0))
        expected = nx.single_source_shortest_path_length(to_networkx(g), 0)
        for v, d in expected.items():
            assert values[v] == d


class TestSSSP:
    def test_matches_dijkstra(self, er_graph):
        program = SingleSourceShortestPaths(0)
        values, _ = run_vertex_program(er_graph, program)
        G = to_networkx(er_graph)
        for u, v in G.edges():
            G[u][v]["weight"] = program.weight_fn(u, v)
        expected = nx.single_source_dijkstra_path_length(G, 0)
        for v, d in expected.items():
            assert values[v] == d

    def test_weights_symmetric_requirement(self):
        # The default weight function is symmetric in (u, v).
        program = SingleSourceShortestPaths(0)
        assert program.weight_fn(3, 7) == program.weight_fn(7, 3)


class TestCC:
    def test_two_components(self):
        from repro.graph.csr import CSRGraph

        g = CSRGraph(5, [(0, 1), (1, 2), (3, 4)])
        values, _ = run_vertex_program(g, ConnectedComponents())
        assert values[0] == values[1] == values[2] == 0
        assert values[3] == values[4] == 3

    def test_matches_networkx(self, pl_graph):
        values, _ = run_vertex_program(pl_graph, ConnectedComponents())
        for component in nx.connected_components(to_networkx(pl_graph)):
            labels = {values[v] for v in component}
            assert labels == {min(component)}

    @given(small_graphs(max_vertices=14))
    @settings(max_examples=30, deadline=None)
    def test_random_graphs(self, g):
        values, _ = run_vertex_program(g, ConnectedComponents())
        for component in nx.connected_components(to_networkx(g)):
            assert {values[v] for v in component} == {min(component)}


class TestPageRank:
    def test_uniform_on_cycle(self):
        g = cycle(8)
        values, _ = run_vertex_program(g, PageRank(tolerance=1e-10))
        assert all(v == pytest.approx(1 / 8, rel=1e-3) for v in values)

    def test_hub_ranks_highest(self):
        g = star(10)
        values, _ = run_vertex_program(g, PageRank(tolerance=1e-9))
        assert values[0] == max(values)

    def test_close_to_networkx(self, pl_graph):
        values, _ = run_vertex_program(pl_graph, PageRank(tolerance=1e-9))
        expected = nx.pagerank(to_networkx(pl_graph), alpha=0.85, tol=1e-10)
        for v in range(pl_graph.num_vertices):
            assert values[v] == pytest.approx(expected[v], abs=5e-4)

    def test_damping_validated(self):
        with pytest.raises(ValueError):
            PageRank(damping=1.5)


class TestEngine:
    def test_iteration_limit(self):
        g = cycle(30)
        with pytest.raises(IterationLimitError):
            run_vertex_program(g, BreadthFirstSearch(0), max_iterations=2)

    def test_supersteps_counted(self):
        g = path(6)
        _, steps = run_vertex_program(g, BreadthFirstSearch(0))
        assert steps >= 5  # distance-5 chain needs at least 5 waves

    def test_bad_initial_values_rejected(self):
        class Broken(BreadthFirstSearch):
            def initial_values(self, graph):
                return [0]

        with pytest.raises(ValueError, match="one value per vertex"):
            run_vertex_program(cycle(4), Broken(0))

    def test_memory_charged(self):
        from repro.locality.trace import AccessCounter

        mem = AccessCounter(6)
        run_vertex_program(cycle(6), BreadthFirstSearch(0), mem=mem)
        assert mem.total_vertex_accesses > 0
        assert mem.total_edge_accesses > 0
