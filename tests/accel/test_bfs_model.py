"""BFS-execution-mode projection (§V-A)."""

import pytest

from repro.accel.bfs_model import estimate_bfs_mode
from repro.accel.config import GramerConfig
from repro.accel.sim import make_simulator
from repro.graph.generators import powerlaw_cluster
from repro.mining.apps import CliqueFinding, MotifCounting


def _estimate(result, **kwargs):
    return estimate_bfs_mode(
        result.cycles,
        result.mining.embeddings_by_size,
        result.mining.max_vertices,
        result.config,
        **kwargs,
    )


@pytest.fixture(scope="module")
def result():
    graph = powerlaw_cluster(300, 4, 0.5, seed=41)
    return make_simulator(graph, GramerConfig(onchip_entries=512)).run(
        MotifCounting(4)
    )


class TestEstimate:
    def test_bfs_never_faster(self, result):
        estimate = _estimate(result)
        assert estimate.bfs_cycles >= estimate.dfs_cycles
        assert estimate.slowdown >= 1.0

    def test_intermediates_counted(self, result):
        estimate = _estimate(result)
        by_size = result.mining.embeddings_by_size
        expected = sum(
            2 * count * size * 8
            for size, count in by_size.items()
            if size < result.mining.max_vertices
        )
        assert estimate.intermediate_bytes == expected
        assert estimate.peak_level_bytes > 0

    def test_final_level_not_materialised(self, result):
        estimate = _estimate(result)
        final = result.mining.embeddings_by_size.get(4, 0) * 4 * 8
        assert estimate.peak_level_bytes != final or final == 0

    def test_capacity_check(self, result):
        generous = _estimate(result)
        assert generous.fits_offchip
        tight = _estimate(result, offchip_capacity_bytes=16)
        assert not tight.fits_offchip

    def test_more_intermediates_more_slowdown(self):
        graph = powerlaw_cluster(300, 4, 0.5, seed=41)
        sim = make_simulator(graph, GramerConfig(onchip_entries=512))
        shallow = _estimate(sim.run(CliqueFinding(3)))
        deep = _estimate(sim.run(MotifCounting(4)))
        assert deep.intermediate_bytes > shallow.intermediate_bytes


class TestExperiment:
    def test_experiment_rows(self):
        from repro.experiments import dfs_vs_bfs

        rows = dfs_vs_bfs.run("tiny", graphs=["p2p", "mico"])
        assert len(rows) == 2
        for row in rows:
            assert row["slowdown"] >= 1.0
