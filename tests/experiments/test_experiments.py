"""Shape checks for every experiment module at tiny scale."""

import pytest

from repro.experiments import (
    fig03_stalls,
    fig05_locality,
    fig08_heuristic,
    fig11_energy,
    fig12_lamh,
    fig13_pipeline,
    fig14_sensitivity,
    table2_resources,
    table3_runtime,
    table4_clock,
)
from repro.runtime.executor import Executor
from repro.runtime.spec import JobResult


class _GramerOnlyExecutor(Executor):
    """Runs the gramer specs; answers the baselines with an empty stub."""

    def run(self, specs, progress=None):
        gramer = iter(
            super().run([s for s in specs if s.backend == "gramer"], progress)
        )
        return [
            next(gramer)
            if spec.backend == "gramer"
            else JobResult(spec, "skipped", True, None, None)
            for spec in specs
        ]


class TestFig03:
    def test_breakdown_rows_and_trend(self):
        rows = fig03_stalls.run("tiny")
        by_graph = {}
        for r in rows:
            assert 0.99 <= r["vertex_stall"] + r["edge_stall"] + r["others"] <= 1.01
            by_graph.setdefault(r["graph"], []).append(
                r["vertex_stall"] + r["edge_stall"]
            )
        # Fig. 3's claim: large graphs stall more than cache-resident ones.
        assert max(by_graph["patents"]) > max(by_graph["citeseer"])

    def test_main_renders(self):
        assert "Fig. 3" in fig03_stalls.main("tiny")


class TestFig05:
    def test_edge_share_starts_at_five_percent(self):
        rows = fig05_locality.run("tiny", max_size=3)
        for r in rows:
            assert r["edge_share"][1] == pytest.approx(0.05, abs=0.012)

    def test_share_grows_on_skewed_graphs(self):
        rows = fig05_locality.run("tiny", max_size=3)
        for r in rows:
            if r["graph"] == "citeseer":
                continue
            assert r["vertex_share"][2] > r["vertex_share"][1]


class TestFig08:
    def test_overheads_grow_with_hops(self):
        data = fig08_heuristic.run(scale="tiny", max_size=3, hops=(0, 1, 2, 3))
        o = data["overheads"]
        assert o[3] > o[2] > o[1]

    def test_accuracy_in_bounds(self):
        data = fig08_heuristic.run(scale="tiny", max_size=3, hops=(1,))
        for value in data["accuracy"][1].values():
            assert 0.0 <= value <= 1.0


class TestTable2:
    def test_matches_paper(self):
        for row in table2_resources.run():
            assert row["lut"] == pytest.approx(row["paper_lut"], rel=0.02)
            assert row["bram"] == pytest.approx(row["paper_bram"], rel=0.02)
            assert row["clock_mhz"] == pytest.approx(
                row["paper_clock_mhz"], rel=0.05
            )


class TestTable3:
    def test_single_cell_gramer_wins(self):
        cells = table3_runtime.run("tiny", apps=["4-CF"], graphs=["mico"])
        rows = table3_runtime.speedup_rows(cells)
        assert rows[0]["speedup_vs_fractal"] > 1.0
        assert rows[0]["speedup_vs_rstream"] > 1.0

    def test_speedup_rows_carry_paper_reference(self):
        cells = table3_runtime.run("tiny", apps=["3-CF"], graphs=["p2p"])
        row = table3_runtime.speedup_rows(cells)[0]
        assert row["paper_speedup_vs_fractal"] == pytest.approx(19.0, rel=0.1)


class TestFig11:
    def test_energy_savings_positive(self):
        cells = table3_runtime.run("tiny", apps=["3-CF"], graphs=["mico", "lj"])
        rows = fig11_energy.run_energy("tiny", cells=cells)
        for row in rows:
            assert row["fractal_min"] > 1.0

    def test_preprocessing_fraction_shrinks_with_workload(self):
        # Both assertions read GRAMER's rows only, so the baseline cells
        # are stubbed out rather than simulated.
        rows = fig11_energy.run_total_time(
            "tiny", app="4-MC", executor=_GramerOnlyExecutor()
        )
        fractions = {r["graph"]: r["preproc_fraction"] for r in rows}
        assert all(0.0 <= f < 1.0 for f in fractions.values())
        # §VI-B: preprocessing dominates tiny runs (up to 55% on Citeseer)
        # but becomes negligible as the mining work grows (< 3% on Mico).
        assert fractions["mico"] < fractions["citeseer"]


class TestFig12:
    def test_lamh_effects(self):
        rows = fig12_lamh.run("tiny", apps=["4-CF", "4-MC"])
        grouped = {}
        for r in rows:
            grouped.setdefault(r["app"], {})[r["variant"]] = r
        # The deep workload shows the paper's vertex-side effect: priority
        # pinning beats the uniform cache (shallow CF workloads are within
        # noise at proxy scale — see EXPERIMENTS.md).
        deep = grouped["4-MC"]
        assert deep["LAMH"]["vertex_hit"] > deep["Uniform LRU"]["vertex_hit"]
        assert deep["Static + LRU"]["vertex_hit"] > (
            deep["Uniform LRU"]["vertex_hit"]
        )
        for app, variants in grouped.items():
            # The Eq. 2 policy refinement never regresses materially, and
            # LAMH's overall performance at least matches Uniform's.
            assert variants["LAMH"]["vertex_hit"] >= (
                variants["Static + LRU"]["vertex_hit"] - 0.05
            )
            assert variants["LAMH"]["normalized_performance"] >= (
                variants["Uniform LRU"]["normalized_performance"] - 0.02
            )


class TestTable4:
    def test_ordering_and_paper_match(self):
        rows = table4_clock.run()
        grid = {r["design"]: r for r in rows}
        for app in ("CF", "FSM", "MC"):
            assert (
                grid["w/o AB"]["model"][app]
                < grid["w/ AB"]["model"][app]
                < grid["w/ AB + Compaction"]["model"][app]
            )
            assert grid["w/ AB"]["model"][app] == pytest.approx(
                grid["w/ AB"]["paper"][app], rel=0.05
            )


class TestFig13:
    def test_slot_scaling(self):
        rows = fig13_pipeline.run_slot_sweep("tiny", graphs=["mico", "lj"])
        for r in rows:
            assert r["speedup"][16] > r["speedup"][2] > 1.0

    def test_stealing_helps_most_skewed(self):
        rows = fig13_pipeline.run_work_stealing("tiny")
        speedups = {r["graph"]: r["speedup"] for r in rows}
        assert all(s >= 1.0 for s in speedups.values())
        # Mico is the most skewed and benefits most (§VI-C).
        assert speedups["mico"] == max(speedups.values())


class TestFig14:
    def test_tau_monotone_toward_ideal(self):
        rows = fig14_sensitivity.run_tau_sweep("tiny", graphs=["p2p", "mico"])
        for r in rows:
            n = r["normalized"]
            assert n[0.50] == 1.0
            assert n[0.01] <= n[0.10] <= n[0.50] * 1.05

    def test_lambda_flat(self):
        rows = fig14_sensitivity.run_lambda_sweep("tiny", graphs=["p2p"])
        for r in rows:
            assert all(0.75 < v < 1.3 for v in r["normalized"].values())
