"""Experiment harness and paper-data helpers."""

import json

import pytest

from repro.experiments import paper_data
from repro.experiments.harness import (
    build_app,
    experiment_config,
    format_seconds,
    format_table,
    run_fractal_cell,
    run_gramer_cell,
    run_rstream_cell,
    save_results,
)
from repro.mining.apps import CliqueFinding, FrequentSubgraphMining


class TestFormatting:
    def test_format_seconds_units(self):
        assert format_seconds(None) == "N/A"
        assert format_seconds(0) == "0"
        assert format_seconds(5e-7).endswith("us")
        assert format_seconds(0.25).endswith("ms")
        assert format_seconds(12.5) == "12.50s"

    def test_format_seconds_minutes(self):
        # Full-scale baseline cells exceed 60 s (e.g. LiveJournal ~433 s);
        # they must render as minutes + seconds, not "433.20s".
        assert format_seconds(433.2) == "7m 13s"
        assert format_seconds(60.0) == "1m 0s"
        assert format_seconds(59.99) == "59.99s"
        assert format_seconds(3601) == "60m 1s"

    def test_format_table_alignment(self):
        text = format_table(["a", "bbb"], [["x", "y"], ["zz", "w"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line.rstrip()) for line in lines[1:2])) == 1

    def test_save_results(self, tmp_path):
        target = tmp_path / "sub" / "results.json"
        save_results({"x": 1}, target)
        assert json.loads(target.read_text()) == {"x": 1}


class TestBuildApp:
    def test_cf(self):
        app = build_app("5-CF", "mico", "tiny")
        assert isinstance(app, CliqueFinding)
        assert app.max_vertices == 5

    def test_fsm_uses_scaled_threshold(self):
        from repro.experiments import datasets

        app = build_app("FSM", "mico", "tiny")
        assert isinstance(app, FrequentSubgraphMining)
        assert app.threshold == datasets.fsm_threshold("mico", "tiny")

    def test_experiment_config_defaults(self):
        from repro.experiments import datasets

        cfg = experiment_config()
        assert cfg.onchip_entries == datasets.EXPERIMENT_ONCHIP_ENTRIES
        assert experiment_config(num_pus=2).num_pus == 2


class TestCells:
    def test_gramer_cell(self):
        cell = run_gramer_cell("3-CF", "citeseer", "tiny")
        assert cell.system == "GRAMER"
        assert cell.seconds > 0
        assert cell.energy_j > 0
        assert cell.detail["cycles"] > 0

    def test_fractal_cell(self):
        from repro.runtime.backends import SCALE_OVERHEADS

        cell = run_fractal_cell("3-CF", "citeseer", "tiny")
        assert cell.system == "Fractal"
        # Includes the scale-matched fixed task overhead.
        assert cell.seconds > SCALE_OVERHEADS["tiny"].fractal_task_s

    def test_rstream_cell(self):
        cell = run_rstream_cell("3-CF", "citeseer", "tiny")
        assert cell.system == "RStream"
        assert cell.seconds is not None

    def test_custom_config_routes_through_runtime(self):
        from repro.experiments.harness import experiment_config

        cell = run_gramer_cell(
            "3-CF", "citeseer", "tiny", config=experiment_config(num_pus=2)
        )
        assert cell.system == "GRAMER"
        assert cell.detail["cycles"] > 0

    def test_no_direct_model_construction_left(self):
        """The runtime refactor's contract: harness only builds JobSpecs."""
        import inspect

        from repro.experiments import harness

        source = inspect.getsource(harness)
        for forbidden in ("GramerSimulator(", "FractalModel(", "RStreamModel("):
            assert forbidden not in source

    def test_systems_agree_on_counts(self):
        cells = [
            run_gramer_cell("3-CF", "p2p", "tiny"),
            run_fractal_cell("3-CF", "p2p", "tiny"),
            run_rstream_cell("3-CF", "p2p", "tiny"),
        ]
        counts = {
            json.dumps(c.detail["embeddings"], sort_keys=True) for c in cells
        }
        assert len(counts) == 1


class TestPaperData:
    def test_table3_complete(self):
        for app in paper_data.TABLE3_APPS:
            assert set(paper_data.TABLE3_SECONDS[app]) == {
                "citeseer", "p2p", "astro", "mico", "patents", "yt", "lj",
            }

    def test_headline_speedup_range_consistent(self):
        """The 1.11x-129.95x headline is attained by actual cells."""
        best = 0.0
        worst = float("inf")
        for app, rows in paper_data.TABLE3_SECONDS.items():
            for graph in rows:
                for ratio in paper_data.paper_speedup(app, graph):
                    if ratio is not None:
                        best = max(best, ratio)
                        worst = min(worst, ratio)
        low, high = paper_data.HEADLINE_SPEEDUP_RANGE
        assert worst == pytest.approx(low, rel=0.02)
        assert best == pytest.approx(high, rel=0.02)

    def test_paper_speedup_na_cells(self):
        vs_f, vs_r = paper_data.paper_speedup("4-MC", "yt")
        assert vs_f is None and vs_r is None
