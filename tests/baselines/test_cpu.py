"""CPU cache-hierarchy timing model."""

import importlib

import pytest

from repro.baselines.cpu import CPUConfig, CPUMemory
from repro.graph.generators import erdos_renyi, powerlaw_cluster
from repro.mining.apps import MotifCounting
from repro.mining.engine import run_dfs


class TestConfig:
    def test_effective_parallelism(self):
        cfg = CPUConfig(cores=14, parallel_efficiency=0.85)
        assert cfg.effective_parallelism == pytest.approx(11.9)


class TestCPUMemory:
    def test_l1_hit_costs_no_stall(self):
        g = erdos_renyi(50, 100, seed=1)
        mem = CPUMemory(g)
        mem.access(0)
        mem.access(0)  # L1 hit
        assert mem.breakdown.vertex_stall_cycles > 0  # first access missed
        stalls = mem.breakdown.vertex_stall_cycles
        mem.access(0)
        assert mem.breakdown.vertex_stall_cycles == stalls

    def test_vertex_edge_attribution(self):
        g = erdos_renyi(50, 100, seed=1)
        mem = CPUMemory(g)
        mem.access(0)
        assert mem.breakdown.edge_stall_cycles == 0
        mem.access(g.num_vertices)  # neighbors[0]
        assert mem.breakdown.edge_stall_cycles > 0

    def test_line_spatial_locality(self):
        g = erdos_renyi(50, 100, seed=1)
        mem = CPUMemory(g)
        mem.access(g.num_vertices)  # neighbors[0]
        before = mem.breakdown.edge_stall_cycles
        mem.access(g.num_vertices + 1)  # same 64-byte line: 8 entries per line
        assert mem.breakdown.edge_stall_cycles == before

    def test_bigger_footprint_more_stalls(self):
        """Fig. 3's trend: stall share grows as graphs outgrow the caches."""
        small_cfg = CPUConfig(l1_bytes=512, l2_bytes=1024, l3_bytes=4096)

        def stall_share(n, m):
            g = powerlaw_cluster(n, 3, 0.3, seed=2, max_degree=m)
            mem = CPUMemory(g, small_cfg)
            run_dfs(g, MotifCounting(3), mem=mem)
            fractions = mem.breakdown.stall_fractions()
            return fractions["vertex"] + fractions["edge"]

        assert stall_share(2000, 40) > stall_share(100, 20)

    def test_stall_fractions_sum_to_one(self):
        g = erdos_renyi(100, 300, seed=3)
        mem = CPUMemory(g)
        run_dfs(g, MotifCounting(3), mem=mem)
        fractions = mem.breakdown.stall_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert all(0 <= v <= 1 for v in fractions.values())

    def test_empty_breakdown(self):
        g = erdos_renyi(10, 10, seed=0)
        mem = CPUMemory(g)
        assert mem.breakdown.stall_fractions() == {
            "vertex": 0.0, "edge": 0.0, "others": 1.0,
        }

    def test_seconds_parallel_division(self):
        g = erdos_renyi(100, 300, seed=3)
        mem = CPUMemory(g)
        run_dfs(g, MotifCounting(3), mem=mem)
        cfg = mem.config
        expected = mem.breakdown.total_cycles / (cfg.freq_ghz * 1e9)
        assert mem.seconds() == pytest.approx(
            expected / cfg.effective_parallelism
        )
        assert mem.seconds(extra_overhead_s=1.0) == pytest.approx(
            mem.seconds() + 1.0
        )

    def test_charge_candidate(self):
        g = erdos_renyi(10, 10, seed=0)
        mem = CPUMemory(g)
        before = mem.breakdown.compute_cycles
        mem.charge_candidate(10)
        assert (
            mem.breakdown.compute_cycles
            == before + 10 * mem.config.cycles_per_candidate
        )


class _PendingProbe(CPUMemory):
    """``CPUMemory`` that measures its pending stream.

    ``peak`` is the most codes ever pending (the stream is longest just
    before it resolves); ``frame`` is the most accesses charged between
    two ``depth`` sets, i.e. one DFS frame's or BFS embedding's share.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.peak = 0
        self.frame = 0
        self._since = 0

    @property
    def depth(self):
        return CPUMemory.depth.fget(self)

    @depth.setter
    def depth(self, value):
        self.frame = max(self.frame, len(self._pending) - self._since)
        CPUMemory.depth.fset(self, value)
        self._since = len(self._pending)

    def resolve(self):
        self.frame = max(self.frame, len(self._pending) - self._since)
        self.peak = max(self.peak, len(self._pending))
        super().resolve()
        self._since = 0


class TestPendingBound:
    """The pending stream stays bounded however long the run."""

    @pytest.mark.parametrize(
        "module, model",
        [("fractal", "FractalModel"), ("rstream", "RStreamModel")],
    )
    def test_patents_run_holds_limit_plus_one_frame(
        self, monkeypatch, module, model
    ):
        from repro.baselines import cpu
        from repro.experiments import datasets

        probes = []

        def probe(*args, **kwargs):
            probes.append(_PendingProbe(*args, **kwargs))
            return probes[-1]

        baseline = importlib.import_module(f"repro.baselines.{module}")
        monkeypatch.setattr(baseline, "CPUMemory", probe)
        graph = datasets.load("patents", "tiny")
        result = getattr(baseline, model)(
            datasets.scaled_cpu_config("tiny")
        ).run(graph, MotifCounting(3))
        (memory,) = probes
        # The run is many buffers long, so the bound is exercised.
        assert result.breakdown.accesses > 5 * cpu._PENDING_LIMIT
        assert 0 < memory.frame < cpu._PENDING_LIMIT
        assert memory.peak <= cpu._PENDING_LIMIT + memory.frame
