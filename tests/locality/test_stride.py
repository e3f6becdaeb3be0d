"""Stride-based access classification."""

from repro.graph.generators import cycle, star
from repro.locality.stride import AccessMix, StrideClassifier

# Access codes: vertex v is v, edge slot i is num_vertices + i.  In
# cycle(n) vertex v owns slots 2v and 2v + 1; in star(k) the hub 0 owns
# slots 0 .. k-1.


class TestStrideClassifier:
    def test_sequential_edge_run(self):
        g = star(20)
        c = StrideClassifier(g)
        for i in range(5):
            c.access(g.num_vertices + 10 + i)  # the hub's stream
        assert c.mix.sequential_edge == 4
        assert c.mix.random_edge == 1  # the first access of a stream

    def test_interleaved_streams_tracked_per_source(self):
        g = cycle(60)
        n = g.num_vertices
        c = StrideClassifier(g)
        c.access(n + 0)  # vertex 0's slice
        c.access(n + 100)  # vertex 50's slice
        c.access(n + 1)  # continues stream 0 despite the interleave
        c.access(n + 101)
        assert c.mix.sequential_edge == 2
        assert c.mix.random_edge == 2

    def test_random_vertex_jumps(self):
        c = StrideClassifier(cycle(300))
        for v in (5, 90, 7, 200):
            c.access(v)
        assert c.mix.random_vertex == 4

    def test_sequential_vertex_sweep(self):
        c = StrideClassifier(cycle(6))
        for v in range(6):
            c.access(v)
        assert c.mix.sequential_vertex == 5

    def test_fractions_sum_to_one(self):
        g = cycle(6)
        c = StrideClassifier(g)
        c.access(0)
        c.access(1)
        c.access(g.num_vertices)  # edge slot 0
        fractions = c.mix.fractions()
        assert abs(sum(fractions.values()) - 1.0) < 1e-9

    def test_empty_mix(self):
        mix = AccessMix()
        assert mix.total == 0
        assert mix.random_vertex_share == 0.0
        assert all(v == 0.0 for v in mix.fractions().values())


class TestFig02Experiment:
    def test_mining_randomises_edges_more_than_processing(self):
        from repro.experiments import fig02_patterns

        rows = fig02_patterns.run("tiny")
        processing = [r for r in rows if r["class"] == "processing"]
        mining = [r for r in rows if r["class"] == "mining"]
        avg_proc = sum(r["random_edge_share"] for r in processing) / len(
            processing
        )
        avg_mine = sum(r["random_edge_share"] for r in mining) / len(mining)
        assert avg_mine > avg_proc

    def test_processing_vertex_accesses_mostly_random(self):
        from repro.experiments import fig02_patterns

        rows = fig02_patterns.run("tiny")
        for r in rows:
            if r["class"] == "processing":
                assert r["random_vertex_share"] > 0.8
