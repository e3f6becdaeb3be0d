"""Rule families against the known-bad fixture corpus and the live tree."""

import json
from pathlib import Path

import pytest

from repro.analysis import check_paths, check_source

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

# fixture file -> rule IDs that must all fire there.
CORPUS = {
    "bad_determinism.py": {"GRM101", "GRM102", "GRM103"},
    "bad_purity.py": {"GRM201", "GRM202", "GRM203"},
    "bad_immutability.py": {"GRM301", "GRM302"},
    "bad_units.py": {"GRM401", "GRM402"},
    "bad_crossproc.py": {"GRM501"},
    "bad_observability.py": {"GRM601", "GRM602"},
    "bad_engine_selection.py": {"GRM701"},
    "bad_turbo_timing.py": {"GRM702"},
    "bad_resilience.py": {"GRM801"},
    "runtime/bad_atomic_writes.py": {"GRM802"},
    "bad_graph_store.py": {"GRM901"},
}

# fixture root -> every finding as [rule_id, repo-relative path, line, col,
# message], each root checked on its own the way `gramer check <root>`
# checks it.  Recorded from the checker before its module and project
# passes shared one parse per file; a refactor must reproduce it exactly.
SNAPSHOT = json.loads((Path(__file__).parent / "fixture_findings.json").read_text())


class TestBadFixtureCorpus:
    @pytest.mark.parametrize("filename", sorted(CORPUS))
    def test_every_family_rule_fires(self, filename):
        fired = {f.rule_id for f in check_paths([FIXTURES / filename])}
        missing = CORPUS[filename] - fired
        assert not missing, f"{filename} should trip {missing}"

    def test_snapshot_covers_every_fixture_root(self):
        roots = {
            p.name
            for p in FIXTURES.iterdir()
            if p.suffix == ".py" or (p.is_dir() and p.name != "__pycache__")
        }
        assert roots == set(SNAPSHOT)

    @pytest.mark.parametrize("root", sorted(SNAPSHOT))
    def test_exact_findings_match_snapshot(self, root):
        found = [
            [
                f.rule_id,
                Path(f.path).resolve().relative_to(REPO_ROOT).as_posix(),
                f.line,
                f.col,
                f.message,
            ]
            for f in check_paths([FIXTURES / root], use_cache=False)
        ]
        assert found == SNAPSHOT[root]

    def test_whole_corpus_is_nonzero(self):
        assert len(check_paths([FIXTURES])) >= 30


class TestAllowedIdioms:
    """The sanctioned patterns next to each bad one must NOT be flagged."""

    def _lines(self, filename, rule_id):
        findings = check_paths([FIXTURES / filename])
        return {f.line for f in findings if f.rule_id == rule_id}

    def test_seeded_rngs_allowed(self):
        source = (FIXTURES / "bad_determinism.py").read_text()
        for needle in ("random.Random(seed)", "default_rng(seed)"):
            lineno = next(
                i
                for i, line in enumerate(source.splitlines(), start=1)
                if needle in line
            )
            assert lineno not in self._lines("bad_determinism.py", "GRM102")
            assert lineno not in self._lines("bad_determinism.py", "GRM103")

    def test_upper_case_constant_allowed(self):
        findings = check_paths([FIXTURES / "bad_purity.py"])
        assert not any("KNOWN_APPS" in f.message for f in findings)

    def test_frozen_and_non_spec_dataclasses_allowed(self):
        findings = check_paths([FIXTURES / "bad_immutability.py"])
        messages = " ".join(f.message for f in findings)
        assert "FrozenJobSpec" not in messages
        assert "ScratchCounters" not in messages

    def test_unit_conversions_and_zero_sentinel_allowed(self):
        source = (FIXTURES / "bad_units.py").read_text()
        allowed = [
            i
            for i, line in enumerate(source.splitlines(), start=1)
            if "# allowed" in line
        ]
        flagged = {f.line for f in check_paths([FIXTURES / "bad_units.py"])}
        assert not flagged & set(allowed)

    def test_main_guard_print_allowed(self):
        source = (FIXTURES / "bad_observability.py").read_text()
        lineno = next(
            i
            for i, line in enumerate(source.splitlines(), start=1)
            if "print(main())" in line
        )
        assert lineno not in self._lines("bad_observability.py", "GRM601")

    def test_registry_counter_not_a_tracer_emit(self):
        source = (FIXTURES / "bad_observability.py").read_text()
        lineno = next(
            i
            for i, line in enumerate(source.splitlines(), start=1)
            if "registry.counter" in line
        )
        assert lineno not in self._lines("bad_observability.py", "GRM602")

    def test_factory_construction_allowed(self):
        flagged = check_paths([FIXTURES / "bad_engine_selection.py"])
        assert not any("make_simulator" in f.message.split()[0] for f in flagged)
        source = (FIXTURES / "bad_engine_selection.py").read_text()
        lineno = next(
            i
            for i, line in enumerate(source.splitlines(), start=1)
            if "make_simulator(graph" in line
        )
        assert lineno not in {f.line for f in flagged}

    def test_turbo_timing_sanctioned_assertions_allowed(self):
        """Mining-count ==, pytest.approx, and fast/reference byte
        equality must all pass GRM702."""
        source = (FIXTURES / "bad_turbo_timing.py").read_text()
        allowed = [
            i
            for i, line in enumerate(source.splitlines(), start=1)
            if "# allowed" in line
        ]
        assert allowed  # the fixture documents its sanctioned idioms
        flagged = self._lines("bad_turbo_timing.py", "GRM702")
        assert len(flagged) == 2  # exactly the two ad-hoc assertions
        # The sanctioned idioms sit in the statements right after their
        # "# allowed" comments; none of those statements may be flagged.
        for comment_line in allowed:
            assert not any(
                comment_line <= f <= comment_line + 4 for f in flagged
            )

    def test_atomic_write_sanctioned_shapes_allowed(self):
        """Append journals, reads, O_EXCL creates, and computed modes
        must all pass GRM802; exactly the five write-in-place shapes
        fire."""
        fixture = "runtime/bad_atomic_writes.py"
        source = (FIXTURES / fixture).read_text()
        allowed = [
            i
            for i, line in enumerate(source.splitlines(), start=1)
            if "# allowed" in line
        ]
        assert allowed  # the fixture documents its sanctioned idioms
        flagged = self._lines(fixture, "GRM802")
        assert len(flagged) == 5
        for comment_line in allowed:
            assert not any(
                comment_line <= f <= comment_line + 6 for f in flagged
            )

    def test_grm802_scoped_to_runtime_paths(self):
        """The same bad shapes outside a runtime/ path are not GRM802's
        business (other rules may still apply)."""
        from repro.analysis import check_source

        source = 'from pathlib import Path\nPath("x").write_text("y")\n'
        findings = check_source(
            source, path="src/repro/obs/report_writer.py"
        )
        assert not any(f.rule_id == "GRM802" for f in findings)

    def test_scalar_submission_allowed(self):
        source = (FIXTURES / "bad_crossproc.py").read_text()
        lineno = next(
            i
            for i, line in enumerate(source.splitlines(), start=1)
            if "cache_root" in line and "submit" in line
        )
        flagged = {f.line for f in check_paths([FIXTURES / "bad_crossproc.py"])}
        assert lineno not in flagged

    def test_store_routed_load_allowed(self):
        """import_edge_list / store.open are the sanctioned graph path."""
        source = (FIXTURES / "bad_graph_store.py").read_text()
        lineno = next(
            i
            for i, line in enumerate(source.splitlines(), start=1)
            if "store.import_edge_list" in line
        )
        assert lineno not in self._lines("bad_graph_store.py", "GRM901")

    def test_handled_broad_excepts_allowed(self):
        """Narrow-pass, logged, re-raised, and working handlers pass GRM801."""
        source = (FIXTURES / "bad_resilience.py").read_text()
        allowed = [
            i
            for i, line in enumerate(source.splitlines(), start=1)
            if "# allowed" in line
        ]
        assert allowed  # the fixture documents its sanctioned idioms
        flagged = self._lines("bad_resilience.py", "GRM801")
        assert not flagged & set(allowed)
        assert len(flagged) == 4  # exactly the four swallowing handlers


class TestLiveTree:
    def test_src_tree_is_clean(self):
        findings = check_paths([REPO_ROOT / "src" / "repro"])
        formatted = "\n".join(
            f"{f.path}:{f.line}: {f.rule_id} {f.message}" for f in findings
        )
        assert findings == [], f"live tree has findings:\n{formatted}"


class TestRuleEdgeCases:
    def test_perf_counter_is_allowed(self):
        source = "import time\nstart = time.perf_counter()\n"
        assert check_source(source, "s.py") == []

    def test_rate_suffix_is_unitless(self):
        source = "def f(x_s, bandwidth_bytes_per_s):\n    return x_s + bandwidth_bytes_per_s\n"
        findings = check_source(source, "s.py")
        assert [f.rule_id for f in findings] == []

    def test_unit_comparison_to_literal_threshold_allowed(self):
        source = "def f(seconds):\n    return seconds < 1e-3\n"
        assert check_source(source, "s.py") == []

    def test_self_attribute_assignment_allowed(self):
        source = (
            "class Sim:\n"
            "    def __init__(self, config):\n"
            "        self.config = config\n"
        )
        assert check_source(source, "s.py") == []

    def test_nested_memoized_scopes_report_once(self):
        """An access inside a producer inside ``Backend.run`` is one finding,
        naming the innermost scope."""
        source = (
            "class FooBackend:\n"
            "    def run(self, cache, key):\n"
            "        return cache.get_or_create(key, lambda: open(key))\n"
        )
        findings = check_source(source, "s.py")
        assert [(f.rule_id, f.line) for f in findings] == [("GRM203", 3)]
        assert "get_or_create producer" in findings[0].message

    def test_non_pool_submit_receiver_allowed(self):
        source = "def f(form, graph):\n    return form.submit(graph)\n"
        assert check_source(source, "s.py") == []

    def test_bare_print_flagged_in_library_module(self):
        findings = check_source(
            "print('x')\n",
            "src/repro/foo.py",
            relpath="src/repro/foo.py",
        )
        assert [f.rule_id for f in findings] == ["GRM601"]

    def test_direct_construction_flagged_outside_accel(self):
        source = "sim = GramerSimulator(graph, config)\n"
        findings = check_source(
            source, "src/repro/experiments/foo.py",
            relpath="src/repro/experiments/foo.py",
        )
        assert [f.rule_id for f in findings] == ["GRM701"]

    def test_direct_construction_allowed_inside_accel(self):
        source = "sim = GramerSimulator(graph, config)\n"
        relpath = "src/repro/accel/turbosim.py"
        assert check_source(source, relpath, relpath=relpath) == []

    def test_turbo_timing_equality_flagged_in_turbo_scope(self):
        source = (
            "def test_cell(graph, config, app, ref):\n"
            "    t = make_simulator(graph, config, engine='turbo').run(app)\n"
            "    assert t.stats.cycles == ref.stats.cycles\n"
        )
        findings = [
            f
            for f in check_source(source, "tests/foo/test_cell.py")
            if f.rule_id == "GRM702"
        ]
        assert len(findings) == 1
        assert "'cycles'" in findings[0].message

    def test_turbo_docstring_mention_is_not_evidence(self):
        source = (
            "def test_determinism(run_a, run_b):\n"
            '    """Same engine twice; see docs/turbo.md for the tiers."""\n'
            "    assert run_a.stats.cycles == run_b.stats.cycles\n"
        )
        findings = check_source(source, "tests/foo/test_det.py")
        # (GRM402 may still comment on the float equality; the point
        # here is that a docstring mention alone is not turbo evidence.)
        assert not any(f.rule_id == "GRM702" for f in findings)

    def test_turbo_mining_count_equality_not_flagged(self):
        source = (
            "def test_counts(turbo_result, ref):\n"
            "    assert (turbo_result.stats.candidates_checked\n"
            "            == ref.stats.candidates_checked)\n"
        )
        assert check_source(source, "tests/foo/test_counts.py") == []

    # Each source's only turbo evidence is of one kind; the expected
    # (line, col, field) findings were recorded from the per-function
    # ast.walk implementation of the rule.
    @pytest.mark.parametrize(
        "source, expected",
        [
            pytest.param(
                "def test_outer(a, b):\n"
                "    def pick(engine='turbo'):\n"
                "        return engine\n"
                "    assert a.stats.cycles == b.stats.cycles\n"
                "\n"
                "def test_sibling(a, b):\n"
                "    assert a.stats.steals != b.stats.steals\n",
                [(4, 11, "cycles")],
                id="nested-function",
            ),
            pytest.param(
                "def test_outer(a, b):\n"
                "    def mid():\n"
                "        def inner(x):\n"
                "            assert x.stats.dram_accesses == 3\n"
                "            return x.turbo\n"
                "        return inner\n"
                "    assert a.stats.cycles == b.stats.cycles\n",
                [(4, 19, "dram_accesses"), (7, 11, "cycles")],
                id="nested-two-deep",
            ),
            pytest.param(
                "def test_param(use_turbo, a, b):\n"
                "    assert a.stats.vertex_misses == b.stats.vertex_misses\n",
                [(2, 11, "vertex_misses")],
                id="parameter",
            ),
            pytest.param(
                "def test_attr(cfg, a, b):\n"
                "    cfg.turbo_mode\n"
                "    assert a.stats.edge_misses == b.stats.edge_misses\n",
                [(3, 11, "edge_misses")],
                id="attribute",
            ),
            pytest.param(
                "def test_concat(run, a, b):\n"
                "    run(engine='tur' 'bo')\n"
                "    assert a.stats.cycles != b.stats.cycles\n",
                [(3, 11, "cycles")],
                id="concatenated-constant",
            ),
            pytest.param(
                "ENGINE = 'turbo'\n"
                "def test_mod(a, b):\n"
                "    assert a.stats.cycles == b.stats.cycles\n",
                [],
                id="module-scope-only",
            ),
        ],
    )
    def test_turbo_evidence_kinds(self, source, expected):
        findings = [
            (f.line, f.col, f.message.split("'")[1])
            for f in check_source(source, "tests/foo/test_kinds.py")
            if f.rule_id == "GRM702"
        ]
        assert findings == expected

    def test_print_allowed_on_sanctioned_output_surfaces(self):
        for relpath in (
            "src/repro/cli.py",
            "src/repro/experiments/report.py",
            "src/repro/obs/log.py",
        ):
            findings = check_source("print('x')\n", relpath, relpath=relpath)
            assert findings == [], relpath
