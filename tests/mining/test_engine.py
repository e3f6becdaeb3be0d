"""The extend-check engine: DFS/BFS equivalence, memory events, oracles."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings

from repro.graph.generators import clique, cycle, path, star
from repro.locality.trace import AccessCounter, IterationTrace
from repro.mining.apps import CliqueFinding, MotifCounting
from repro.mining.engine import (
    Frame,
    FrontierOverflowError,
    NullMemory,
    run_bfs,
    run_dfs,
    slot_step,
)

from ..conftest import small_graphs
from .test_canonical import brute_force_connected_subsets


def steps(graph, frame, probe="binary"):
    """Step ``frame`` to exhaustion: every ``(candidate, column)`` verdict."""
    mem = NullMemory()
    offsets, neighbors = graph.offsets.tolist(), graph.neighbors.tolist()
    produced = []
    while True:
        candidate, column = slot_step(
            offsets, neighbors, frame, False, probe == "scan", mem.access,
        )
        if candidate is None:
            return produced
        produced.append((candidate, column))


def candidates(graph, frame):
    """The raw candidates ``frame`` streams until exhausted."""
    return [candidate for candidate, _ in steps(graph, frame)]


def to_networkx(graph):
    g = nx.Graph(list(graph.edges()))
    g.add_nodes_from(range(graph.num_vertices))
    return g


class TestCliqueOracles:
    @pytest.mark.parametrize("n,k", [(5, 3), (6, 4), (7, 5)])
    def test_complete_graph(self, n, k):
        assert run_dfs(clique(n), CliqueFinding(k)).num_cliques == math.comb(n, k)

    def test_triangle_free(self):
        assert run_dfs(cycle(8), CliqueFinding(3)).num_cliques == 0

    def test_networkx_oracle(self, pl_graph):
        G = to_networkx(pl_graph)
        for k in (3, 4):
            expected = sum(
                1 for c in nx.enumerate_all_cliques(G) if len(c) == k
            )
            assert run_dfs(pl_graph, CliqueFinding(k)).num_cliques == expected

    @given(small_graphs(max_vertices=10))
    @settings(max_examples=40, deadline=None)
    def test_triangles_match_networkx(self, g):
        G = to_networkx(g)
        expected = sum(nx.triangles(G).values()) // 3
        assert run_dfs(g, CliqueFinding(3)).num_cliques == expected


class TestMotifOracles:
    def test_star_wedges(self):
        n = 6
        app = run_dfs(star(n), MotifCounting(3))
        assert app.named_census() == {"wedge": math.comb(n, 2)}

    def test_cycle_motifs(self):
        app = run_dfs(cycle(7), MotifCounting(4))
        # C7: 7 paths of 3 edges; no other connected 4-subgraphs.
        assert app.named_census() == {"3-path": 7}

    def test_clique_census(self):
        app = run_dfs(clique(5), MotifCounting(4))
        assert app.named_census() == {"4-clique": 5}

    def test_path_graph(self):
        app = run_dfs(path(5), MotifCounting(3))
        assert app.named_census() == {"wedge": 3}

    @given(small_graphs(max_vertices=9))
    @settings(max_examples=30, deadline=None)
    def test_total_equals_connected_subsets(self, g):
        app = run_dfs(g, MotifCounting(3))
        total = sum(app.motif_census(3).values())
        assert total == len(brute_force_connected_subsets(g, 3))


class TestDFSEqualsBFS:
    @given(small_graphs(max_vertices=10))
    @settings(max_examples=30, deadline=None)
    def test_motif_counting(self, g):
        a = run_dfs(g, MotifCounting(4)).result()
        b = run_bfs(g, MotifCounting(4)).result()
        assert a.embeddings_by_size == b.embeddings_by_size
        assert a.patterns_by_size == b.patterns_by_size

    def test_cliques_on_fixed_graph(self, dense_graph):
        a = run_dfs(dense_graph, CliqueFinding(4)).result()
        b = run_bfs(dense_graph, CliqueFinding(4)).result()
        assert a.embeddings_by_size == b.embeddings_by_size

    def test_access_totals_match(self, er_graph):
        """The two execution orders touch the same multiset of addresses."""
        n = er_graph.num_vertices
        mem_a, mem_b = AccessCounter(n), AccessCounter(n)
        run_dfs(er_graph, MotifCounting(3), mem=mem_a)
        run_bfs(er_graph, MotifCounting(3), mem=mem_b)
        assert mem_a.vertex_counts == mem_b.vertex_counts
        assert mem_a.edge_counts == mem_b.edge_counts


class TestFrontierOverflow:
    def test_raises_beyond_limit(self):
        g = clique(12)
        with pytest.raises(FrontierOverflowError):
            run_bfs(g, MotifCounting(4), max_frontier=50)

    def test_observer_sees_levels(self):
        levels = {}
        candidates = {}

        def observe(size, count, cands):
            levels[size] = count
            candidates[size] = cands

        run_bfs(cycle(6), MotifCounting(3), frontier_observer=observe)
        assert levels[2] == 6  # six edges -> six 2-vertex embeddings
        assert levels[3] == 6  # six wedges
        assert candidates[2] >= levels[2]  # raw candidates >= accepted


class TestMemoryEvents:
    def test_iteration_attribution(self):
        trace = IterationTrace(6)
        run_dfs(cycle(6), MotifCounting(3), mem=trace)
        # Iteration 1 extends 1-vertex embeddings, iteration 2 extends pairs.
        assert set(trace.iterations) == {1, 2}

    def test_vertex_access_includes_members_and_candidates(self):
        mem = AccessCounter(3)
        run_dfs(path(3), MotifCounting(3), mem=mem)
        assert mem.total_vertex_accesses > 0
        assert mem.total_edge_accesses > 0

    def test_edge_accesses_cover_all_slots(self):
        g = cycle(5)
        mem = AccessCounter(g.num_vertices)
        run_dfs(g, MotifCounting(3), mem=mem)
        # Every adjacency slot is streamed at least once (for the roots).
        assert set(mem.edge_counts) == set(range(len(g.neighbors)))


class TestProbeModes:
    def test_scan_and_binary_agree(self, pl_graph):
        for vertices, member in (((2,), 0), ((2, 40), 1)):
            verdicts = []
            for probe in ("binary", "scan"):
                frame = Frame(vertices, (0,) * len(vertices))
                frame.member_idx = member
                verdicts.append(steps(pl_graph, frame, probe))
            assert verdicts[0]  # the member has neighbours to check
            assert verdicts[0] == verdicts[1]

    def test_scan_mode_on_simulator(self, pl_graph):
        from repro.accel import GramerConfig, GramerSimulator

        ref = run_dfs(pl_graph, CliqueFinding(3)).num_cliques
        app = CliqueFinding(3)
        binary_res = GramerSimulator(
            pl_graph, GramerConfig(onchip_entries=256, probe_mode="binary")
        ).run(CliqueFinding(3))
        scan_res = GramerSimulator(
            pl_graph, GramerConfig(onchip_entries=256, probe_mode="scan")
        ).run(app)
        assert app.num_cliques == ref
        assert binary_res.mining.embeddings_by_size == (
            scan_res.mining.embeddings_by_size
        )
        # Scanning touches at least as many edge slots as binary search.
        assert (
            scan_res.stats.edge_accesses >= binary_res.stats.edge_accesses
        )

    def test_bad_probe_mode_rejected(self):
        from repro.accel import GramerConfig
        import pytest

        with pytest.raises(ValueError, match="probe_mode"):
            GramerConfig(probe_mode="linear")


class TestFrame:
    def test_advance_streams_sorted_adjacency(self):
        g = star(4)
        frame = Frame((0,), (0,))
        assert candidates(g, frame) == [1, 2, 3, 4]
        assert frame.exhausted()

    def test_member_limit_respected(self):
        g = clique(4)
        frame = Frame((0, 1), (0, 0b1))
        frame.member_limit = 1  # only member 0 may be scanned
        assert candidates(g, frame) == [1, 2, 3]  # vertex 0's neighbors only

    def test_cursor_limit_respected(self):
        g = star(5)
        frame = Frame((0,), (0,))
        mem = NullMemory()
        slot_step(
            g.offsets.tolist(), g.neighbors.tolist(), frame, False, False,
            mem.access,
        )  # loads member, cursor=1
        frame.cursor_limit = 3
        assert candidates(g, frame) == [2, 3]  # cursor 1 and 2 only

    def test_roots_argument_restricts(self):
        g = clique(4)
        app = run_dfs(g, CliqueFinding(3), roots=[0])
        # Only cliques whose canonical minimum is 0.
        assert app.num_cliques == math.comb(3, 2)
