"""The gramer CLI."""

import pytest

from repro.cli import main


class TestCLI:
    def test_datasets_listing(self, capsys):
        main(["datasets", "--scale", "tiny"])
        out = capsys.readouterr().out
        assert "citeseer" in out and "lj" in out
        assert "paper:" in out

    def test_mine_dataset(self, capsys):
        main(["mine", "--dataset", "citeseer", "--scale", "tiny",
              "--app", "3-CF"])
        out = capsys.readouterr().out
        assert "mined in" in out
        assert "embeddings by size" in out

    def test_mine_edge_list_file(self, tmp_path, capsys):
        target = tmp_path / "g.txt"
        target.write_text("0 1\n1 2\n0 2\n")
        main(["mine", "--graph", str(target), "--app", "3-CF"])
        out = capsys.readouterr().out
        assert "3: 1" in out  # exactly one triangle

    def test_mine_fsm(self, capsys):
        main(["mine", "--dataset", "p2p", "--scale", "tiny",
              "--app", "FSM-5"])
        out = capsys.readouterr().out
        assert "summary" in out

    def test_simulate(self, capsys):
        main(["simulate", "--dataset", "p2p", "--scale", "tiny",
              "--app", "3-CF", "--slots", "4"])
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "hit ratios" in out

    def test_simulate_no_stealing(self, capsys):
        main(["simulate", "--dataset", "citeseer", "--scale", "tiny",
              "--app", "3-CF", "--no-stealing"])
        assert "steals 0" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command",
        [
            ["simulate", "--dataset", "p2p", "--scale", "tiny"],
            ["sweep", "--apps", "3-CF", "--scale", "tiny"],
            ["worker", "--apps", "3-CF", "--ledger", "l", "--claims", "c"],
            ["manifest", "seal", "m.json", "--apps", "3-CF"],
        ],
        ids=["simulate", "sweep", "worker", "manifest-seal"],
    )
    def test_engine_flag_is_not_an_option(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            main([*command, "--engine", "fast"])
        assert info.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err

    def test_missing_graph_errors(self):
        with pytest.raises(SystemExit):
            main(["mine", "--app", "3-CF"])

    def test_experiment_subset(self, tmp_path, capsys):
        main(["experiment", "--scale", "tiny", "--only", "table4",
              "--out", str(tmp_path)])
        assert (tmp_path / "table4.txt").exists()
        assert (tmp_path / "results.json").exists()

    def test_experiment_accepts_jobs_and_no_cache(self, tmp_path, capsys):
        main(["experiment", "--scale", "tiny", "--only", "table2",
              "--out", str(tmp_path), "--jobs", "2", "--no-cache"])
        assert (tmp_path / "table2.txt").exists()

    def test_experiment_rejects_unknown_name(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["experiment", "--scale", "tiny", "--only", "fig4",
                  "--out", str(tmp_path)])
        assert info.value.code == 2
        assert "invalid choice: 'fig4'" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        main(["sweep", "--apps", "3-CF", "--datasets", "citeseer",
              "--backends", "gramer", "fractal", "--scale", "tiny",
              "--out", str(out)])
        text = capsys.readouterr().out
        assert "GRAMER" in text and "Fractal" in text
        assert "2 jobs" in text
        import json

        payload = json.loads(out.read_text())
        assert {r["backend"] for r in payload["results"]} == {"gramer", "fractal"}
        assert all(r["ok"] for r in payload["results"])

    def test_sweep_software_out(self, tmp_path, capsys):
        # Software detail keys pattern counts by PatternCode; the JSON
        # writer must stringify those keys instead of crashing.
        out = tmp_path / "sweep.json"
        main(["sweep", "--apps", "3-CF", "--datasets", "citeseer",
              "--backends", "software", "--scale", "tiny",
              "--out", str(out)])
        assert "1 jobs" in capsys.readouterr().out
        import json

        (row,) = json.loads(out.read_text())["results"]
        assert row["backend"] == "software" and row["ok"]
        assert row["detail"]["patterns"] == {"3": {"<triangle>": 6}}

    def test_sweep_parallel_and_unknown_backend(self, capsys):
        main(["sweep", "--apps", "3-CF", "--datasets", "citeseer", "p2p",
              "--backends", "gramer", "--scale", "tiny", "--jobs", "2",
              "--no-cache"])
        assert "2 jobs" in capsys.readouterr().out
        with pytest.raises(SystemExit, match="unknown backend"):
            main(["sweep", "--apps", "3-CF", "--backends", "warp"])
        with pytest.raises(SystemExit, match="unknown dataset"):
            main(["sweep", "--apps", "3-CF", "--datasets", "nope"])

    def test_sweep_exit_code_reflects_failures(self, capsys):
        """A sweep containing failed cells must exit nonzero for scripts."""
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--apps", "4-MC", "--datasets", "lj",
                  "--backends", "gramer", "--scale", "tiny", "--jobs", "2",
                  "--timeout", "0.01", "--no-cache"])
        assert info.value.code == 1
        assert "1 failed" in capsys.readouterr().out

    def test_simulate_with_trace(self, tmp_path, capsys):
        trace = tmp_path / "sim-trace.json"
        main(["simulate", "--dataset", "citeseer", "--scale", "tiny",
              "--app", "3-CF", "--trace", str(trace)])
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "categories:" in out
        import json

        payload = json.loads(trace.read_text())
        assert payload["traceEvents"]

    def test_trace_command(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        main(["trace", "3-CF", "citeseer", "--scale", "tiny",
              "--out", str(trace), "--jsonl", str(jsonl)])
        out = capsys.readouterr().out
        assert "cycles" in out and "perfetto" in out.lower()
        import json

        from repro.obs import validate_event

        payload = json.loads(trace.read_text())
        categories = {
            e["cat"] for e in payload["traceEvents"] if e["ph"] != "M"
        }
        assert {"pu", "memory", "steal", "executor"} <= categories
        lines = jsonl.read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "gramer-trace"  # header
        for line in lines[1:]:
            assert validate_event(json.loads(line)) == []

    def test_memprofile_text_report(self, capsys):
        main(["memprofile", "--dataset", "citeseer", "--scale", "tiny",
              "--app", "3-CF", "--backends", "gramer", "--no-cache"])
        out = capsys.readouterr().out
        assert "memory access profile: gramer" in out
        assert "adjacency" in out
        assert "1024B rows x 8 streams" in out

    def test_memprofile_compare_and_out(self, tmp_path, capsys):
        report = tmp_path / "compare.txt"
        main(["memprofile", "--dataset", "citeseer", "--scale", "tiny",
              "--app", "3-CF", "--compare", "gramer", "fractal",
              "--no-cache", "--out", str(report)])
        assert "wrote" in capsys.readouterr().out
        text = report.read_text()
        assert "seq gramer" in text and "seq fractal" in text

    def test_memprofile_json_is_machine_readable(self, capsys):
        main(["memprofile", "--dataset", "citeseer", "--scale", "tiny",
              "--app", "3-CF", "--backends", "fractal", "--no-cache",
              "--format", "json"])
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["fractal"]["schema_version"] == 1

    def test_memprofile_requires_dataset(self):
        with pytest.raises(SystemExit, match="--dataset"):
            main(["memprofile", "--app", "3-CF"])
        with pytest.raises(SystemExit, match="unknown dataset"):
            main(["memprofile", "--dataset", "nope", "--app", "3-CF"])

    def test_sweep_access_report(self, tmp_path, capsys):
        report = tmp_path / "access.md"
        main(["sweep", "--apps", "3-CF", "--datasets", "citeseer",
              "--backends", "gramer", "fractal", "--scale", "tiny",
              "--access-report", str(report)])
        out = capsys.readouterr().out
        assert "traced cell" in out
        text = report.read_text()
        assert text.startswith("| cell |")
        assert "gramer:3-CF@citeseer/tiny" in text

    def test_trace_unknown_dataset_errors(self):
        with pytest.raises(SystemExit, match="unknown dataset"):
            main(["trace", "3-CF", "nope"])

    def test_profile_command(self, capsys):
        main(["profile", "--dataset", "citeseer", "--scale", "tiny",
              "--app", "3-CF", "--metrics"])
        out = capsys.readouterr().out
        assert "stall attribution" in out
        assert "cache-set pressure" in out
        assert "timeline" in out
        assert "sim_cycles_total" in out  # --metrics dump

    def test_profile_matches_oracle_run(self, capsys):
        """Profile text and metrics equal an instrumented oracle run's."""
        from repro.accel.config import GramerConfig
        from repro.experiments import datasets
        from repro.mining import make_app
        from repro.obs import MetricsRegistry, SimInstrument, render_profile

        from .differential.engine_oracle import ReferenceSimulator

        main(["profile", "--dataset", "citeseer", "--scale", "tiny",
              "--app", "3-CF", "--window", "256", "--metrics"])
        out = capsys.readouterr().out

        graph = datasets.load("citeseer", "tiny")
        config = GramerConfig(onchip_entries=max(
            64, (graph.num_vertices + len(graph.neighbors)) // 4
        ))
        registry = MetricsRegistry()
        instrument = SimInstrument(window_cycles=256, registry=registry)
        oracle = ReferenceSimulator(graph, config, instrument=instrument)
        result = oracle.run(make_app("3-CF"))
        oracle.hierarchy.publish(registry)
        profile = render_profile(
            result.stats,
            instrument=instrument,
            pressure=oracle.hierarchy.low_cache_pressure(),
        )
        assert out == f"{profile}\n\n{registry.render_text()}\n"

    def test_sweep_reports_slowest_jobs(self, capsys):
        main(["sweep", "--apps", "3-CF", "--datasets", "citeseer",
              "--backends", "gramer", "--scale", "tiny", "--no-cache"])
        assert "slowest jobs" in capsys.readouterr().out

    def test_check_clean_file(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("VALUE = 3\n")
        main(["check", str(target)])
        assert "clean" in capsys.readouterr().out

    def test_check_flags_bad_file_and_exits_nonzero(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("import time\nstamp = time.time()\n")
        with pytest.raises(SystemExit) as info:
            main(["check", str(target)])
        assert info.value.code == 1
        out = capsys.readouterr().out
        assert "GRM101" in out and "1 finding" in out

    def test_check_github_format(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("import time\nstamp = time.time()\n")
        with pytest.raises(SystemExit):
            main(["check", str(target), "--format", "github"])
        assert "::error file=" in capsys.readouterr().out

    def test_check_select_and_list_rules(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("import time\nstamp = time.time()\n")
        main(["check", str(target), "--select", "units"])
        assert "clean" in capsys.readouterr().out
        main(["check", "--list-rules"])
        out = capsys.readouterr().out
        assert "GRM101" in out and "GRM501" in out

    def test_check_unknown_rule_errors(self, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text("VALUE = 3\n")
        with pytest.raises(SystemExit, match="unknown rule"):
            main(["check", str(target), "--select", "NOPE"])

    def test_check_explain_prints_rationale(self, capsys):
        main(["check", "--explain", "GRM1002"])
        out = capsys.readouterr().out
        assert "GRM1002" in out
        assert "cache" in out.lower()
        # Rationale body, not just the one-line summary.
        assert len(out.splitlines()) > 2

    def test_check_explain_unknown_rule_errors(self):
        with pytest.raises(SystemExit, match="unknown rule"):
            main(["check", "--explain", "GRM424242"])

    def test_check_sarif_format(self, tmp_path, capsys):
        import json

        target = tmp_path / "bad.py"
        target.write_text("import time\nstamp = time.time()\n")
        with pytest.raises(SystemExit) as info:
            main(["check", str(target), "--format", "sarif"])
        assert info.value.code == 1
        captured = capsys.readouterr()
        log = json.loads(captured.out)
        assert log["version"] == "2.1.0"
        (run,) = log["runs"]
        assert any(r["ruleId"] == "GRM101" for r in run["results"])
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"GRM002", "GRM1001", "GRM1002", "GRM1003"} <= rule_ids
        # Human summary goes to stderr so stdout stays valid JSON.
        assert "finding" in captured.err

    def test_check_changed_scopes_to_modified_files(self, tmp_path, capsys, monkeypatch):
        import subprocess

        monkeypatch.chdir(tmp_path)
        subprocess.run(["git", "init", "-q"], check=True)
        subprocess.run(["git", "config", "user.email", "t@t"], check=True)
        subprocess.run(["git", "config", "user.name", "t"], check=True)
        committed = tmp_path / "old.py"
        committed.write_text("import time\nstamp = time.time()\n")
        subprocess.run(["git", "add", "-A"], check=True)
        subprocess.run(["git", "commit", "-q", "-m", "seed"], check=True)
        fresh = tmp_path / "fresh.py"
        fresh.write_text("import time\nlater = time.time()\n")
        # Only the untracked file's findings are reported.
        with pytest.raises(SystemExit):
            main(["check", str(tmp_path), "--changed", "HEAD"])
        out = capsys.readouterr().out
        assert "fresh.py" in out
        assert "old.py" not in out

    def test_check_changed_works_from_subdirectory(
        self, tmp_path, capsys, monkeypatch
    ):
        import subprocess

        monkeypatch.chdir(tmp_path)
        subprocess.run(["git", "init", "-q"], check=True)
        subprocess.run(["git", "config", "user.email", "t@t"], check=True)
        subprocess.run(["git", "config", "user.name", "t"], check=True)
        tracked = tmp_path / "tracked.py"
        tracked.write_text("VALUE = 1\n")
        subprocess.run(["git", "add", "-A"], check=True)
        subprocess.run(["git", "commit", "-q", "-m", "seed"], check=True)
        tracked.write_text("import time\nstamp = time.time()\n")
        (tmp_path / "fresh.py").write_text("import time\nlater = time.time()\n")
        # Git names are repo-root-relative; running from a subdirectory
        # must not silently drop them (a falsely green pre-commit).
        sub = tmp_path / "sub"
        sub.mkdir()
        monkeypatch.chdir(sub)
        with pytest.raises(SystemExit):
            main(["check", str(tmp_path), "--changed", "HEAD"])
        out = capsys.readouterr().out
        assert "tracked.py" in out
        assert "fresh.py" in out

    def test_check_changed_with_no_modifications_is_clean(
        self, tmp_path, capsys, monkeypatch
    ):
        import subprocess

        monkeypatch.chdir(tmp_path)
        subprocess.run(["git", "init", "-q"], check=True)
        subprocess.run(["git", "config", "user.email", "t@t"], check=True)
        subprocess.run(["git", "config", "user.name", "t"], check=True)
        (tmp_path / "mod.py").write_text("VALUE = 3\n")
        subprocess.run(["git", "add", "-A"], check=True)
        subprocess.run(["git", "commit", "-q", "-m", "seed"], check=True)
        main(["check", str(tmp_path), "--changed"])
        assert "clean" in capsys.readouterr().out
