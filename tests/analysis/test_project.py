"""The whole-program pass: summaries, resolution, call graph, GRM10xx rules."""

import ast
from pathlib import Path

import pytest

from repro.analysis import check_paths
from repro.analysis.callgraph import CallGraph
from repro.analysis.core import analysis_digest, iter_python_files, module_records
from repro.analysis.project import ProjectAnalysis
from repro.analysis.summary import ModuleSummary, summarize_module
from repro.analysis.taint import sink_taint, tainted_returns
from repro.runtime.cache import ArtifactCache

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def line_of(path: Path, needle: str) -> int:
    source = path.read_text()
    return next(
        i
        for i, line in enumerate(source.splitlines(), start=1)
        if needle in line
    )


def summarize(source: str) -> ModuleSummary:
    tree = ast.parse(source)
    return summarize_module(tree, ast.walk(tree))


def project_findings(root: Path) -> list:
    return check_paths([root], select=["project"], use_cache=False)


class TestSummarizer:
    def test_wallclock_source_reaches_return(self):
        summary = summarize(
            "import time\n\ndef stamp():\n    return time.perf_counter()\n"
        )
        (fn,) = summary.functions
        assert "src:wallclock" in fn.return_atoms

    def test_unresolved_call_is_a_call_atom(self):
        summary = summarize("def f():\n    return make_thing()\n")
        (fn,) = summary.functions
        assert "call:make_thing" in fn.return_atoms

    def test_branches_merge_by_union(self):
        source = (
            "import time\n"
            "def f(flag):\n"
            "    if flag:\n"
            "        x = time.perf_counter()\n"
            "    else:\n"
            "        x = 0.0\n"
            "    return x\n"
        )
        (fn,) = summarize(source).functions
        assert "src:wallclock" in fn.return_atoms

    def test_loop_carried_taint_stabilizes(self):
        source = (
            "import time\n"
            "def f(n):\n"
            "    acc = 0.0\n"
            "    for _ in range(n):\n"
            "        acc = acc + time.perf_counter()\n"
            "    return acc\n"
        )
        (fn,) = summarize(source).functions
        assert "src:wallclock" in fn.return_atoms

    def test_jobresult_sink_splits_deterministic_fields(self):
        source = (
            "def f(spec, wall, model):\n"
            "    return JobResult(spec=spec, seconds=model, wall_seconds=wall)\n"
        )
        (fn,) = summarize(source).functions
        details = {s.detail for s in fn.sinks}
        assert "seconds" in details
        assert "wall_seconds" not in details

    def test_spec_class_asdict_is_complete(self):
        source = (
            "from dataclasses import asdict, dataclass\n"
            "@dataclass(frozen=True)\n"
            "class S:\n"
            "    a: int\n"
            "    def cache_key(self):\n"
            "        return {'spec': asdict(self)}\n"
        )
        (spec,) = summarize(source).spec_classes
        assert spec.complete

    def test_backend_run_annotation_recorded(self):
        source = (
            "class FooBackend:\n"
            "    def run(self, spec: JobSpec):\n"
            "        return spec\n"
        )
        (backend,) = summarize(source).backends
        assert backend.spec_annotation == "JobSpec"

    def test_multiple_doublestar_expansions_keep_distinct_atoms(self):
        source = (
            "import time\n"
            "def f(pool):\n"
            "    clean = {'x': 1}\n"
            "    dirty = {'t': time.time()}\n"
            "    pool.submit(task, **clean, **dirty)\n"
        )
        (fn,) = summarize(source).functions
        (submit,) = fn.submits
        assert submit.arg_names == ("**", "**")
        # Each ``**`` slot carries its own dict's atoms, not the last one's.
        assert "src:wallclock" not in submit.arg_atoms[0]
        assert "src:wallclock" in submit.arg_atoms[1]

    def test_conditional_toplevel_defs_enter_symbol_table(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "import time\n"
            "try:\n"
            "    from fastlib import stamp\n"
            "except ImportError:\n"
            "    def stamp():\n"
            "        return time.perf_counter()\n"
            "if True:\n"
            "    class Late:\n"
            "        def tick(self):\n"
            "            return stamp()\n"
        )
        project = ProjectAnalysis.build(tmp_path)
        assert project.resolve_call("mod", "stamp") == "mod:stamp"
        assert (
            project.resolve_call("mod", "self.tick", class_name="Late")
            == "mod:Late.tick"
        )


class TestProjectResolution:
    def _tree(self, tmp_path: Path) -> Path:
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "__init__.py").write_text(
            "from pkg.impl import core_fn\n"
        )
        (tmp_path / "pkg" / "impl.py").write_text(
            "def core_fn():\n    return 1\n"
        )
        (tmp_path / "pkg" / "user.py").write_text(
            "import pkg\n"
            "from pkg import core_fn\n"
            "from pkg.impl import core_fn as aliased\n"
            "def a():\n    return core_fn()\n"
            "def b():\n    return aliased()\n"
            "def c():\n    return pkg.core_fn()\n"
        )
        return tmp_path / "pkg"

    def test_import_reexport_and_alias_resolution(self, tmp_path):
        project = ProjectAnalysis.build(self._tree(tmp_path))
        target = "pkg.impl:core_fn"
        assert project.resolve_call("pkg.user", "core_fn") == target
        assert project.resolve_call("pkg.user", "aliased") == target
        assert project.resolve_call("pkg.user", "pkg.core_fn") == target

    def test_self_method_resolution(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "class A:\n"
            "    def helper(self):\n"
            "        return 1\n"
            "    def run(self):\n"
            "        return self.helper()\n"
        )
        project = ProjectAnalysis.build(tmp_path)
        assert (
            project.resolve_call("mod", "self.helper", class_name="A")
            == "mod:A.helper"
        )

    def test_unresolvable_third_party_is_none(self, tmp_path):
        (tmp_path / "mod.py").write_text("import numpy as np\n")
        project = ProjectAnalysis.build(tmp_path)
        assert project.resolve_call("mod", "np.zeros") is None

    def test_syntax_error_is_recorded_not_fatal(self, tmp_path):
        (tmp_path / "ok.py").write_text("def f():\n    return 1\n")
        (tmp_path / "broken.py").write_text("def broken(:\n")
        project = ProjectAnalysis.build(tmp_path)
        assert "ok" in project.modules
        assert "broken" in project.errors

    def test_relative_imports_resolve_per_root(self, tmp_path):
        # Summaries are root-independent: one set of records serves a
        # root and a package nested in it, each naming modules its way.
        pkg = tmp_path / "outer" / "pkg"
        pkg.mkdir(parents=True)
        (tmp_path / "outer" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "core.py").write_text("def stamp():\n    return 1\n")
        (pkg / "user.py").write_text("from .core import stamp\n")
        records = module_records(iter_python_files([tmp_path / "outer"]))
        whole = ProjectAnalysis.build(tmp_path / "outer", records=records)
        nested = ProjectAnalysis.build(pkg, records=records)
        assert whole.resolve_call("outer.pkg.user", "stamp") == "outer.pkg.core:stamp"
        assert nested.resolve_call("pkg.user", "stamp") == "pkg.core:stamp"

    def test_summary_cache_round_trip(self, tmp_path):
        (tmp_path / "src").mkdir()
        files = [tmp_path / "src" / "mod.py"]
        files[0].write_text("def f():\n    return 1\n")
        cache = ArtifactCache(root=tmp_path / "cache")
        module_records(files, cache=cache)
        assert cache.stats.misses == 1
        warm = ProjectAnalysis.build(
            tmp_path / "src", records=module_records(files, cache=cache)
        )
        assert cache.stats.misses == 1  # the summary rides in the file record
        assert "mod" in warm.modules

    def test_analysis_digest_is_stable(self):
        assert analysis_digest() == analysis_digest()
        assert len(analysis_digest()) == 64


class TestCallGraphAndTaint:
    def _project(self, tmp_path: Path) -> ProjectAnalysis:
        (tmp_path / "lo.py").write_text(
            "import time\n"
            "def leaf():\n    return time.perf_counter()\n"
        )
        (tmp_path / "hi.py").write_text(
            "from lo import leaf\n"
            "def mid():\n    return leaf()\n"
            "def top():\n    return mid()\n"
            "def clean():\n    return 42\n"
        )
        return ProjectAnalysis.build(tmp_path)

    def test_reachability_with_witness_chain(self, tmp_path):
        project = self._project(tmp_path)
        graph = CallGraph.build(project)
        reached = graph.reachable(["hi:top"])
        assert "lo:leaf" in reached
        assert graph.chain(reached, "lo:leaf") == ["hi:top", "hi:mid", "lo:leaf"]

    def test_taint_fixpoint_crosses_files(self, tmp_path):
        project = self._project(tmp_path)
        graph = CallGraph.build(project)
        tainted = tainted_returns(project, graph, "wallclock")
        assert tainted["hi:top"] == ("hi:top", "hi:mid", "lo:leaf")
        assert "hi:clean" not in tainted

    def test_sink_taint_ignores_unresolved_calls(self, tmp_path):
        project = self._project(tmp_path)
        graph = CallGraph.build(project)
        tainted = tainted_returns(project, graph, "wallclock")
        assert (
            sink_taint(graph, "hi:top", frozenset({"call:mystery"}), "wallclock", tainted)
            is None
        )


class TestDeterminismTaintRule:
    ROOT = FIXTURES / "proj_taint"

    def test_exact_findings(self):
        findings = project_findings(self.ROOT)
        grm1001 = [f for f in findings if f.rule_id == "GRM1001"]
        backend = self.ROOT / "backend.py"
        expected = {
            line_of(backend, "seconds=elapsed"),
            line_of(backend, "# bad: env key"),
            line_of(backend, "# bad: stats counter"),
        }
        assert {f.line for f in grm1001} == expected
        assert all(f.path == str(backend) for f in grm1001)

    def test_witness_chain_in_message(self):
        findings = project_findings(self.ROOT)
        seconds = next(
            f
            for f in findings
            if f.rule_id == "GRM1001" and "'seconds'" in f.message
        )
        assert "backend::measure -> helpers::relabel -> helpers::stamp" in (
            seconds.message
        )

    def test_sanctioned_flows_stay_silent(self):
        findings = project_findings(self.ROOT)
        backend = self.ROOT / "backend.py"
        allowed = {
            line_of(backend, "wall_seconds=wall"),
            line_of(backend, "spec.label"),
        }
        assert not {f.line for f in findings} & allowed


class TestCacheKeyCompletenessRule:
    ROOT = FIXTURES / "proj_cachekey"

    def test_exact_findings(self):
        findings = project_findings(self.ROOT)
        grm1002 = [f for f in findings if f.rule_id == "GRM1002"]
        expected = {
            (
                str(self.ROOT / "shaping.py"),
                line_of(self.ROOT / "shaping.py", "spec.tile_size * 2"),
            ),
            (
                str(self.ROOT / "backend.py"),
                line_of(self.ROOT / "backend.py", 'params.get("engine"'),
            ),
        }
        assert {(f.path, f.line) for f in grm1002} == expected

    def test_cross_file_read_names_route_and_field(self):
        findings = project_findings(self.ROOT)
        tile = next(f for f in findings if "tile_size" in f.message)
        assert "TileBackend.run" in tile.message
        assert "effective_tile" in tile.message
        assert "cache_key()" in tile.message

    def test_complete_digest_backend_is_silent(self):
        findings = project_findings(self.ROOT)
        assert not any("FullSpec" in f.message for f in findings)


class TestCrossprocReachabilityRule:
    ROOT = FIXTURES / "proj_crossproc"

    def test_exact_findings(self):
        findings = project_findings(self.ROOT)
        grm1003 = [f for f in findings if f.rule_id == "GRM1003"]
        driver = self.ROOT / "driver.py"
        expected = {
            line_of(driver, "# bad: graph arg"),
            line_of(driver, "# bad: nested function"),
            line_of(driver, "# bad: name bound to a lambda"),
        }
        assert {f.line for f in grm1003} == expected

    def test_graph_payload_names_loader_chain(self):
        findings = project_findings(self.ROOT)
        payload = next(
            f for f in findings if "whole-graph object" in f.message
        )
        assert "loader::load_graph" in payload.message

    def test_scalar_digest_submission_is_silent(self):
        findings = project_findings(self.ROOT)
        driver = self.ROOT / "driver.py"
        allowed = line_of(driver, "# allowed: scalar content address")
        assert allowed not in {f.line for f in findings}


class TestLiveTreeProjectPass:
    def test_src_tree_clean_under_project_rules(self):
        findings = check_paths(
            [REPO_ROOT / "src" / "repro"], select=["project"], use_cache=False
        )
        formatted = "\n".join(
            f"{f.path}:{f.line}: {f.rule_id} {f.message}" for f in findings
        )
        assert findings == [], f"project pass has findings:\n{formatted}"


class TestIncrementalCheck:
    def test_warm_check_reuses_every_record(self, tmp_path):
        cache = ArtifactCache(root=tmp_path / "cache")
        root = FIXTURES / "proj_taint"
        cold = check_paths([root], select=["project"], cache=cache)
        assert cold  # the corpus fires
        misses = cache.stats.misses
        warm = check_paths([root], select=["project"], cache=cache)
        assert warm == cold
        assert cache.stats.misses == misses  # zero re-parses on warm pass

    def test_edit_invalidates_only_that_file(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.py").write_text("import time\nx = time.time()\n")
        (src / "b.py").write_text("y = 1\n")
        cache = ArtifactCache(root=tmp_path / "cache")
        check_paths([src], cache=cache)
        (src / "b.py").write_text("y = 2\n")
        cache.stats.misses = 0
        check_paths([src], cache=cache)
        # one file record (findings and summary) recomputed, a.py untouched
        assert cache.stats.misses == 1

    def test_one_parse_per_file_cold_none_warm(self, tmp_path, monkeypatch):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("from .core import stamp\n")
        (pkg / "core.py").write_text(
            "import time\n\ndef stamp():\n    return time.perf_counter()\n"
        )
        (pkg / "user.py").write_text(
            "from pkg.core import stamp\n\ndef use():\n    return stamp()\n"
        )
        parses: list[str] = []
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parses.append(str(filename))
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        cache = ArtifactCache(root=tmp_path / "cache")
        cold = check_paths([pkg], cache=cache)
        assert sorted(parses) == sorted(str(p) for p in pkg.glob("*.py"))
        parses.clear()
        assert check_paths([pkg], cache=cache) == cold
        assert parses == []

    def test_parallel_jobs_match_sequential(self, tmp_path):
        root = FIXTURES / "proj_taint"
        sequential = check_paths([root], select=["project"], use_cache=False)
        parallel = check_paths(
            [root], select=["project"], use_cache=False, jobs=2
        )
        assert parallel == sequential

    def test_relative_dir_argument_matches_suppressions(
        self, tmp_path, monkeypatch
    ):
        # The CLI default argument is the *relative* "src"; project
        # findings carry resolved absolute paths, and suppression
        # matching must bridge the two.
        proj = tmp_path / "proj"
        proj.mkdir()
        (proj / "helpers.py").write_text(
            "import time\n\ndef stamp():\n    return time.perf_counter()\n"
        )
        (proj / "backend.py").write_text(
            "from helpers import stamp\n"
            "def finish(spec):\n"
            "    return JobResult(spec=spec, seconds=stamp(), ok=True)"
            "  # gramer: ignore[GRM1001] -- exercised by the test\n"
        )
        monkeypatch.chdir(tmp_path)
        # The GRM1001 flow is suppressed AND the suppression counts as
        # used, so GRM002 stays silent too.
        findings = check_paths(
            ["proj"], select=["project", "GRM002"], use_cache=False
        )
        assert findings == []

    def test_relative_dir_argument_reports_unsuppressed_findings(
        self, tmp_path, monkeypatch
    ):
        proj = tmp_path / "proj"
        proj.mkdir()
        (proj / "helpers.py").write_text(
            "import time\n\ndef stamp():\n    return time.perf_counter()\n"
        )
        (proj / "backend.py").write_text(
            "from helpers import stamp\n"
            "def finish(spec):\n"
            "    return JobResult(spec=spec, seconds=stamp(), ok=True)\n"
        )
        monkeypatch.chdir(tmp_path)
        findings = check_paths(["proj"], select=["project"], use_cache=False)
        assert [f.rule_id for f in findings] == ["GRM1001"]

    def test_only_filter_scopes_reported_files(self):
        root = FIXTURES / "proj_cachekey"
        scoped = check_paths(
            [root],
            select=["project"],
            use_cache=False,
            only=[root / "shaping.py"],
        )
        assert scoped
        assert all(f.path == str(root / "shaping.py") for f in scoped)
