"""GraphStore: round trips, digest stability, corruption, memoization."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings

import repro.graph.csr as csr_mod
import repro.graph.store as store_mod
from repro.graph.csr import CSRGraph
from repro.graph.generators import powerlaw_cluster, random_labels
from repro.graph.io import save_edge_list
from repro.graph.store import (
    GraphArtifactError,
    GraphStore,
    default_graph_store,
    reset_default_graph_store,
)

from ..conftest import small_graphs


def _assert_same_graph(a: CSRGraph, b: CSRGraph) -> None:
    """Full behavioural equality: arrays, degrees, membership, labels."""
    assert np.array_equal(a.offsets, b.offsets)
    assert np.array_equal(a.neighbors, b.neighbors)
    assert np.array_equal(a.labels, b.labels)
    assert a.num_vertices == b.num_vertices
    assert a.num_edges == b.num_edges
    assert np.array_equal(a.degrees(), b.degrees())
    for u in range(a.num_vertices):
        for v in range(a.num_vertices):
            assert a.has_edge(u, v) == b.has_edge(u, v)


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(graph=small_graphs())
    def test_mmap_round_trip_indistinguishable(self, graph, tmp_path_factory):
        """A store round trip behaves exactly like the build-path graph."""
        store = GraphStore(tmp_path_factory.mktemp("store-prop"))
        digest = store.put(graph)
        reopened = store.open(digest)
        _assert_same_graph(graph, reopened)
        assert reopened.content_digest() == digest
        # Read-only mmap backing, not copies.
        assert not reopened.offsets.flags.writeable
        assert not reopened.labels.flags.writeable

    def test_labeled_round_trip(self, tmp_path):
        store = GraphStore(tmp_path)
        graph = random_labels(powerlaw_cluster(60, 3, 0.3, seed=3), 4, seed=9)
        reopened = store.open(store.put(graph))
        _assert_same_graph(graph, reopened)

    def test_digest_is_the_raw_array_hash(self, tmp_path):
        """The store address == SHA-256 over offsets+neighbors+labels bytes.

        This is the exact digest the ON1-rank cache keyed on before the
        store existed; equality keeps old cache entries addressable.
        """
        graph = powerlaw_cluster(50, 2, 0.2, seed=4)
        expected = hashlib.sha256()
        expected.update(graph.offsets.tobytes())
        expected.update(graph.neighbors.tobytes())
        expected.update(graph.labels.tobytes())
        assert GraphStore(tmp_path).put(graph) == expected.hexdigest()

    def test_open_memoizes_per_digest(self, tmp_path):
        store = GraphStore(tmp_path)
        digest = store.put(powerlaw_cluster(40, 2, 0.2, seed=5))
        assert store.open(digest) is store.open(digest)

    def test_put_is_idempotent(self, tmp_path):
        store = GraphStore(tmp_path)
        graph = powerlaw_cluster(40, 2, 0.2, seed=6)
        assert store.put(graph) == store.put(graph)
        assert len(store.digests()) == 1


class TestNamedSources:
    def test_materialize_builds_once(self, tmp_path):
        store = GraphStore(tmp_path)
        calls = {"n": 0}

        def builder():
            calls["n"] += 1
            return powerlaw_cluster(40, 2, 0.2, seed=7)

        key = {"dataset": "x", "scale": "tiny"}
        first = store.materialize(key, builder)
        assert store.materialize(key, builder) == first
        assert calls["n"] == 1
        # A fresh store over the same root serves from disk, not builder.
        assert GraphStore(tmp_path).materialize(key, builder) == first
        assert calls["n"] == 1

    def test_import_edge_list_parses_once_per_content(self, tmp_path, monkeypatch):
        store = GraphStore(tmp_path / "root")
        graph = powerlaw_cluster(30, 2, 0.2, seed=8)
        target = tmp_path / "edges.txt"
        save_edge_list(graph, target)
        calls = {"n": 0}
        real = store_mod.load_edge_list

        def counting(path, **kwargs):
            calls["n"] += 1
            return real(path, **kwargs)

        monkeypatch.setattr(store_mod, "load_edge_list", counting)
        digest = store.import_edge_list(target)
        assert store.import_edge_list(target) == digest
        assert calls["n"] == 1
        _assert_same_graph(store.open(digest), graph)

    def test_default_store_follows_cache_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GRAMER_CACHE_DIR", str(tmp_path / "a"))
        reset_default_graph_store()
        try:
            store_a = default_graph_store()
            assert store_a is default_graph_store()
            monkeypatch.setenv("GRAMER_CACHE_DIR", str(tmp_path / "b"))
            store_b = default_graph_store()
            assert store_b is not store_a
            assert store_b.cache_root == tmp_path / "b"
        finally:
            reset_default_graph_store()


class TestCorruptionMatrix:
    """Truncation, bit flips, version skew: quarantine + rebuild, never a
    wrong graph."""

    KEY = {"dataset": "corrupt-me", "scale": "tiny"}

    def _seeded(self, tmp_path):
        store = GraphStore(tmp_path)
        graph = powerlaw_cluster(50, 3, 0.3, seed=10)
        digest = store.materialize(self.KEY, lambda: graph)
        store._open_graphs.clear()  # force the next open to hit disk
        return store, graph, digest

    def _assert_quarantined_and_rebuilt(self, store, tmp_path, graph, digest):
        path = store.artifact_path(digest)
        with pytest.raises(GraphArtifactError):
            store.open(digest)
        assert not path.exists()
        quarantine = tmp_path / "quarantine"
        assert list(quarantine.glob("graphstore-*")), "artifact not quarantined"
        assert store.quarantined == 1
        # The ref now dangles; load() rebuilds via the builder and the
        # rebuilt graph is the original, bit for bit.
        rebuilt = store.load(self.KEY, lambda: graph)
        _assert_same_graph(rebuilt, graph)
        assert rebuilt.content_digest() == digest

    def test_truncated_artifact(self, tmp_path):
        store, graph, digest = self._seeded(tmp_path)
        path = store.artifact_path(digest)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        self._assert_quarantined_and_rebuilt(store, tmp_path, graph, digest)

    def test_bit_flipped_array(self, tmp_path):
        store, graph, digest = self._seeded(tmp_path)
        path = store.artifact_path(digest)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # last byte sits inside the labels array
        path.write_bytes(bytes(data))
        self._assert_quarantined_and_rebuilt(store, tmp_path, graph, digest)

    def test_header_bit_flip(self, tmp_path):
        store, graph, digest = self._seeded(tmp_path)
        path = store.artifact_path(digest)
        data = bytearray(path.read_bytes())
        data[40] ^= 0x01  # inside the JSON header
        path.write_bytes(bytes(data))
        self._assert_quarantined_and_rebuilt(store, tmp_path, graph, digest)

    def test_version_skew(self, tmp_path, monkeypatch):
        store, graph, digest = self._seeded(tmp_path)
        # A runtime that moved on to format v2 must not trust v1 bytes.
        monkeypatch.setattr(
            store_mod, "GRAPH_FORMAT_VERSION", store_mod.GRAPH_FORMAT_VERSION + 1
        )
        path = store.artifact_path(digest)
        with pytest.raises(GraphArtifactError):
            store.open(digest)
        assert not path.exists()
        assert store.quarantined == 1

    def test_wrong_digest_address(self, tmp_path):
        """An artifact stored under the wrong name never comes back."""
        store, graph, digest = self._seeded(tmp_path)
        other = "0" * 64
        store.artifact_path(digest).rename(store.artifact_path(other))
        with pytest.raises(GraphArtifactError):
            store.open(other)
        assert store.quarantined == 1

    def test_verify_quarantines_from_disk(self, tmp_path):
        store, graph, digest = self._seeded(tmp_path)
        assert store.verify(digest)["num_vertices"] == graph.num_vertices
        path = store.artifact_path(digest)
        data = bytearray(path.read_bytes())
        data[-8] ^= 0x10
        path.write_bytes(bytes(data))
        with pytest.raises(GraphArtifactError):
            store.verify(digest)
        assert store.quarantined == 1


class _CountingHashlib:
    """hashlib stand-in that counts sha256 constructions."""

    def __init__(self):
        self.calls = 0

    def sha256(self, *args):
        self.calls += 1
        return hashlib.sha256(*args)


class TestSignatureMemoization:
    """Regression for the per-job re-hash: one hash per distinct graph per
    process, zero for store-opened graphs."""

    def test_content_digest_hashes_once(self, monkeypatch):
        graph = powerlaw_cluster(40, 2, 0.2, seed=11)
        counter = _CountingHashlib()
        monkeypatch.setattr(csr_mod, "hashlib", counter)
        assert graph.content_digest() == graph.content_digest()
        graph.content_digest()
        assert counter.calls == 1

    def test_graph_signature_uses_the_memo(self, monkeypatch):
        from repro.runtime.backends import cached_vertex_rank

        graph = powerlaw_cluster(40, 2, 0.2, seed=12)
        counter = _CountingHashlib()
        monkeypatch.setattr(csr_mod, "hashlib", counter)
        first = cached_vertex_rank(graph)
        assert list(cached_vertex_rank(graph)) == list(first)
        assert counter.calls == 1

    def test_store_opened_graph_never_hashes(self, tmp_path, monkeypatch):
        store = GraphStore(tmp_path)
        digest = store.put(powerlaw_cluster(40, 2, 0.2, seed=13))
        store._open_graphs.clear()
        reopened = store.open(digest)
        counter = _CountingHashlib()
        monkeypatch.setattr(csr_mod, "hashlib", counter)
        assert reopened.content_digest() == digest
        assert counter.calls == 0  # digest rode in from the verified header

    def test_distinct_graphs_hash_distinctly(self, monkeypatch):
        a = powerlaw_cluster(40, 2, 0.2, seed=14)
        b = powerlaw_cluster(40, 2, 0.2, seed=15)
        counter = _CountingHashlib()
        monkeypatch.setattr(csr_mod, "hashlib", counter)
        assert a.content_digest() != b.content_digest()
        assert counter.calls == 2
