"""Suppression edge cases and the GRM002 unused-suppression rule."""

from pathlib import Path

from repro.analysis import all_rules, check_paths, check_source, select_rules
from repro.analysis.core import module_records

FIXTURES = Path(__file__).parent / "fixtures"

DATACLASS_SPEC = (
    "from dataclasses import dataclass\n"
    "\n"
    "# gramer: ignore[GRM301] -- scratch holder, mutability deliberate\n"
    "@dataclass\n"
    "class ScratchSpec:\n"
    "    x: int = 0\n"
)


def ids(source: str, **kwargs) -> list[str]:
    return [f.rule_id for f in check_source(source, "snippet.py", **kwargs)]


class TestSuppressionEdgeCases:
    def test_standalone_above_decorated_def(self):
        # The comment covers the decorator line; the finding anchors at
        # the class line — decorator aliasing must bridge them.
        assert ids(DATACLASS_SPEC) == []

    def test_trailing_on_decorator_line(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass  # gramer: ignore[GRM301] -- scratch holder\n"
            "class ScratchSpec:\n"
            "    x: int = 0\n"
        )
        assert ids(source) == []

    def test_unsuppressed_decorated_def_still_fires(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class ScratchSpec:\n"
            "    x: int = 0\n"
        )
        assert "GRM301" in ids(source)

    def test_trailing_on_last_line_of_multiline_statement(self):
        source = (
            "import time\n"
            "x = (\n"
            "    time.time()\n"
            ")  # gramer: ignore[GRM101] -- wall time only\n"
        )
        assert ids(source) == []

    def test_trailing_on_first_line_of_multiline_statement(self):
        source = (
            "import time\n"
            "x = (  # gramer: ignore[GRM101] -- wall time only\n"
            "    time.time()\n"
            ")\n"
        )
        assert ids(source) == []

    def test_multiline_coverage_does_not_leak_to_next_statement(self):
        source = (
            "import time\n"
            "x = (\n"
            "    time.time()\n"
            ")  # gramer: ignore[GRM101]\n"
            "y = time.time()\n"
        )
        findings = check_source(source, "snippet.py")
        assert [f.line for f in findings] == [5]

    def test_function_body_is_not_covered_by_def_line_suppression(self):
        # A def-line suppression covers the signature, not the body: the
        # statement-unit widening must stop at the header.
        source = (
            "import time\n"
            "def f():  # gramer: ignore[GRM101] -- header only\n"
            "    return time.time()\n"
        )
        findings = check_source(source, "snippet.py")
        assert "GRM101" in {f.rule_id for f in findings}

    def test_multiline_def_signature_suppression(self):
        source = (
            "def f(\n"
            "    a_s,\n"
            "    b_cycles,\n"
            "):  # gramer: ignore[GRM401, GRM002] -- header unit check\n"
            "    return 1\n"
        )
        assert ids(source) == []


def suppressions(tmp_path: Path, source: str) -> tuple:
    path = tmp_path / "snippet.py"
    path.write_text(source, encoding="utf-8")
    (record,) = module_records([path], all_rules()).values()
    return record.suppressions


class TestSuppressionPrefilter:
    """Only a source holding the marker is tokenized; the result is exact."""

    def test_marker_in_string_literal_silences_nothing(self, tmp_path):
        source = (
            "import time\n"
            'NOTE = "# gramer: ignore"\n'
            'x = (time.time(), "# gramer: ignore[GRM101]")\n'
        )
        assert ids(source) == ["GRM101"]
        assert suppressions(tmp_path, source) == ()

    def test_spacing_variants_parse_to_the_same_ids(self, tmp_path):
        source = (
            "import time\n"
            "a = time.time()  #gramer:ignore\n"
            "b = time.time()  #  gramer:  ignore[GRM101, grm102]\n"
            "c = time.time()  # gramer: ignore[GRM101,GRM102]\n"
        )
        assert ids(source) == []
        entries = suppressions(tmp_path, source)
        assert [(s.line, s.ids) for s in entries] == [
            (2, None),
            (3, ("GRM101", "GRM102")),
            (4, ("GRM101", "GRM102")),
        ]

    def test_file_without_marker_reports_findings(self, tmp_path):
        source = "import time\nx = time.time()\n"
        assert ids(source) == ["GRM101"]
        assert suppressions(tmp_path, source) == ()


class TestUnusedSuppressionRule:
    def test_unused_listed_suppression_is_flagged(self):
        findings = check_source(
            "y = 1  # gramer: ignore[GRM101] -- stale\n", "snippet.py"
        )
        assert [f.rule_id for f in findings] == ["GRM002"]
        assert "GRM101" in findings[0].message
        assert findings[0].line == 1

    def test_unused_bare_suppression_is_flagged(self):
        findings = check_source("y = 1  # gramer: ignore\n", "snippet.py")
        assert [f.rule_id for f in findings] == ["GRM002"]

    def test_used_suppression_is_not_flagged(self):
        source = "import time\nx = time.time()  # gramer: ignore[GRM101]\n"
        assert ids(source) == []

    def test_partially_used_entry_counts_as_used(self):
        # One entry naming two rules is "used" if either fires.
        source = (
            "import time\n"
            "x = time.time()  # gramer: ignore[GRM101, GRM401]\n"
        )
        assert ids(source) == []

    def test_grm002_acknowledgment_keeps_entry(self):
        source = "y = 1  # gramer: ignore[GRM101, GRM002] -- kept on purpose\n"
        assert ids(source) == []

    def test_grm002_is_not_self_suppressible(self):
        # The bare entry silences every rule on line 1 — except GRM002
        # itself, or no unused suppression could ever be reported.
        findings = check_source("y = 1  # gramer: ignore\n", "snippet.py")
        assert [f.rule_id for f in findings] == ["GRM002"]

    def test_not_reported_when_grm002_unselected(self):
        rules = select_rules(["determinism"])
        findings = check_source(
            "y = 1  # gramer: ignore[GRM101]\n", "snippet.py", rules=rules
        )
        assert findings == []

    def test_fixture_paths_are_exempt(self):
        relpath = "tests/analysis/fixtures/suppressions/edge.py"
        findings = check_source(
            "y = 1  # gramer: ignore[GRM101]\n", relpath, relpath=relpath
        )
        assert findings == []

    def test_fixture_exemption_applies_through_check_paths(self):
        findings = check_paths(
            [FIXTURES / "suppressions" / "edge.py"], use_cache=False
        )
        assert not any(f.rule_id == "GRM002" for f in findings)

    def test_suppression_used_by_project_finding_counts(self, tmp_path):
        # A suppression whose only effect is silencing a GRM10xx project
        # finding must not be reported unused.
        (tmp_path / "helpers.py").write_text(
            "import time\n\n\ndef stamp():\n    return time.perf_counter()\n"
        )
        (tmp_path / "backend.py").write_text(
            "from helpers import stamp\n"
            "\n"
            "\n"
            "def finish(spec):\n"
            "    # gramer: ignore[GRM1001] -- modeled seconds, reviewed\n"
            "    return JobResult(spec=spec, seconds=stamp(), ok=True)\n"
        )
        findings = check_paths([tmp_path], use_cache=False)
        assert not any(f.rule_id == "GRM1001" for f in findings)
        assert not any(f.rule_id == "GRM002" for f in findings)
