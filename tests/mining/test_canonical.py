"""Canonicality: exactly-once enumeration of connected induced subgraphs."""

from itertools import combinations, permutations

import pytest
from hypothesis import given, settings

from repro.graph.generators import clique, cycle, path, star
from repro.mining.canonical import (
    canonical_order,
    first_neighbor_index,
    id_checks_pass,
    is_canonical_embedding,
)
from repro.mining.engine import Frame, NullMemory, slot_step

from ..conftest import small_graphs


def brute_force_connected_subsets(graph, k):
    """All connected induced k-subsets, as frozensets (oracle)."""
    result = set()
    for subset in combinations(range(graph.num_vertices), k):
        seen = {subset[0]}
        stack = [subset[0]]
        members = set(subset)
        while stack:
            v = stack.pop()
            for u in members - seen:
                if graph.has_edge(v, u):
                    seen.add(u)
                    stack.append(u)
        if seen == members:
            result.add(frozenset(subset))
    return result


class TestCanonicalOrder:
    def test_triangle(self):
        g = clique(3)
        assert canonical_order(g, [2, 0, 1]) == (0, 1, 2)

    def test_path_order_follows_adjacency(self):
        g = path(4)  # 0-1-2-3
        # {1, 2, 3}: starts at 1, then must take 2 (only neighbor), then 3.
        assert canonical_order(g, [3, 1, 2]) == (1, 2, 3)

    def test_disconnected_rejected(self):
        g = path(4)
        with pytest.raises(ValueError, match="not connected"):
            canonical_order(g, [0, 3])

    def test_duplicates_rejected(self):
        g = clique(3)
        with pytest.raises(ValueError, match="duplicates"):
            canonical_order(g, [0, 0, 1])

    def test_empty(self):
        assert canonical_order(clique(3), []) == ()

    def test_unique_per_set(self):
        g = cycle(5)
        orders = {
            canonical_order(g, perm)
            for perm in permutations([0, 1, 4])
        }
        assert len(orders) == 1


class TestIsCanonical:
    def test_only_one_order_canonical(self):
        g = clique(4)
        subset = (0, 1, 2)
        canonical = [
            perm
            for perm in permutations(subset)
            if is_canonical_embedding(g, perm)
        ]
        assert len(canonical) == 1

    def test_disconnected_not_canonical(self):
        g = path(4)
        assert not is_canonical_embedding(g, (0, 3))


class TestIdChecks:
    def test_membership_rejected(self):
        assert not id_checks_pass((1, 2), 0, 2)

    def test_smaller_than_first_rejected(self):
        assert not id_checks_pass((3, 5), 1, 2)

    def test_smaller_than_later_member_rejected(self):
        # candidate from member 0 must exceed members after index 0.
        assert not id_checks_pass((1, 7), 0, 5)

    def test_larger_accepted(self):
        assert id_checks_pass((1, 3), 1, 7)


class TestFirstNeighbor:
    def test_finds_first(self):
        g = path(4)
        assert first_neighbor_index(g, (0, 1, 2), 3) == 2

    def test_not_adjacent_raises(self):
        g = path(4)
        with pytest.raises(ValueError):
            first_neighbor_index(g, (0,), 3)


class TestExactlyOnceEnumeration:
    """The core invariant: the incremental rule == brute force, exactly once."""

    def _enumerate(self, graph, k):
        """Enumerate via the engine's incremental rule; returns list of sets."""
        mem = NullMemory()
        offsets, neighbors = graph.offsets.tolist(), graph.neighbors.tolist()
        found = []

        def extend(vertices):
            if len(vertices) == k:
                found.append(frozenset(vertices))
                return
            # One slot step per (member, neighbour) pair, members in order.
            frame = Frame(vertices, (0,) * len(vertices))
            while True:
                u, column = slot_step(
                    offsets, neighbors, frame, False, False,
                    mem.vertex, mem.edge,
                )
                if u is None:
                    return
                if column:
                    extend(vertices + (u,))

        for v in range(graph.num_vertices):
            extend((v,))
        return found

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_cycle(self, k):
        g = cycle(6)
        found = self._enumerate(g, k)
        expected = brute_force_connected_subsets(g, k)
        assert len(found) == len(set(found)) == len(expected)
        assert set(found) == expected

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_clique(self, k):
        g = clique(5)
        found = self._enumerate(g, k)
        expected = brute_force_connected_subsets(g, k)
        assert len(found) == len(set(found)) == len(expected)
        assert set(found) == expected

    def test_star(self):
        g = star(5)
        found = self._enumerate(g, 3)
        assert set(found) == brute_force_connected_subsets(g, 3)

    @given(small_graphs(max_vertices=9))
    @settings(max_examples=60, deadline=None)
    def test_random_graphs_k3(self, g):
        found = self._enumerate(g, 3)
        expected = brute_force_connected_subsets(g, 3)
        assert len(found) == len(set(found)), "duplicate embedding generated"
        assert set(found) == expected

    @given(small_graphs(max_vertices=8))
    @settings(max_examples=30, deadline=None)
    def test_random_graphs_k4(self, g):
        found = self._enumerate(g, 4)
        expected = brute_force_connected_subsets(g, 4)
        assert len(found) == len(set(found))
        assert set(found) == expected
