"""Run ledger: append/replay roundtrip, torn-line tolerance, attempt counts."""

import json

import pytest

from repro.runtime import (
    LEDGER_VERSION,
    LedgerVersionError,
    RunLedger,
    load_ledger,
    make_jobspec,
    spec_digest,
)
from repro.runtime.ledger import ledger_length
from repro.runtime.spec import JobResult, failed_result

SPEC_A = make_jobspec("gramer", "3-CF", dataset="citeseer", scale="tiny")
SPEC_B = make_jobspec("gramer", "3-MC", dataset="wiki-vote", scale="tiny")


def ok_result(spec, retries=0):
    return JobResult(
        spec=spec,
        system="GRAMER",
        ok=True,
        seconds=1.25,
        energy_j=0.5,
        detail={},
        wall_seconds=0.01,
        retries=retries,
    )


class TestRoundTrip:
    def test_empty_or_missing_ledger_loads_empty(self, tmp_path):
        state = load_ledger(tmp_path / "never-written.jsonl")
        assert state.entries == {} and state.attempts == {}

    def test_finish_records_replay_to_final_state(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            ledger.sweep_started(total=2)
            ledger.job_started(SPEC_A, attempt=1)
            ledger.job_finished(ok_result(SPEC_A, retries=1))
            ledger.job_started(SPEC_B, attempt=1)
            ledger.job_finished(failed_result(SPEC_B, "ValueError: nope"))
        state = load_ledger(path)
        entry_a = state.entry_for(SPEC_A)
        assert entry_a is not None and entry_a.completed
        assert entry_a.retries == 1
        assert entry_a.seconds == 1.25 and entry_a.energy_j == 0.5
        assert entry_a.system == "GRAMER"
        entry_b = state.entry_for(SPEC_B)
        assert entry_b is not None and not entry_b.completed
        assert entry_b.status == "failed"
        assert "ValueError" in (entry_b.error or "")
        assert state.is_completed(SPEC_A) and not state.is_completed(SPEC_B)

    def test_started_but_never_finished_reads_as_incomplete(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            ledger.job_started(SPEC_A, attempt=1)
        state = load_ledger(path)
        entry = state.entry_for(SPEC_A)
        assert entry is not None and entry.status == "started"
        assert not state.is_completed(SPEC_A)

    def test_later_records_win(self, tmp_path):
        """A re-run (resume) overwrites an earlier failure for the digest."""
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            ledger.job_finished(failed_result(SPEC_A, "TimeoutError: slow"))
            ledger.job_started(SPEC_A, attempt=2)
            ledger.job_finished(ok_result(SPEC_A))
        state = load_ledger(path)
        assert state.is_completed(SPEC_A)

    def test_attempt_counts_track_start_events(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            ledger.job_started(SPEC_A, attempt=1)
            ledger.job_started(SPEC_A, attempt=2)
            ledger.job_started(SPEC_B, attempt=1)
            ledger.job_finished(ok_result(SPEC_A))
            ledger.job_finished(ok_result(SPEC_B))
        state = load_ledger(path)
        assert state.attempts[spec_digest(SPEC_A)] == 2
        assert state.attempts[spec_digest(SPEC_B)] == 1


class TestCrashTolerance:
    def test_torn_final_line_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            ledger.job_finished(ok_result(SPEC_A))
            ledger.job_started(SPEC_B, attempt=1)
        # Simulate a crash mid-write: chop the last line in half.
        text = path.read_text()
        path.write_text(text[: len(text) - 12])
        state = load_ledger(path)
        assert state.truncated_lines == 1
        assert state.is_completed(SPEC_A)  # earlier history survives
        assert not state.is_completed(SPEC_B)

    def test_garbage_lines_are_counted_and_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            ledger.job_finished(ok_result(SPEC_A))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write('["a", "list", "record"]\n')
            handle.write("\n")  # blank lines are simply ignored
        state = load_ledger(path)
        assert state.truncated_lines == 2
        assert state.is_completed(SPEC_A)

    def test_each_record_is_one_complete_json_line(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            ledger.sweep_started(total=1)
            ledger.job_started(SPEC_A, attempt=1)
            ledger.job_finished(ok_result(SPEC_A))
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            record = json.loads(line)  # every line parses standalone
            assert isinstance(record, dict) and "event" in record


class TestVersioning:
    """Reject-newer / accept-older: the ledger_version header contract."""

    def test_header_declares_current_version(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            ledger.sweep_started(total=1)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["ledger_version"] == LEDGER_VERSION
        assert load_ledger(path).version == LEDGER_VERSION

    def test_newer_version_is_rejected_with_clear_error(self, tmp_path):
        path = tmp_path / "future.jsonl"
        header = {
            "event": "sweep_start",
            "ledger_version": LEDGER_VERSION + 1,
            "total": 1,
            "note": "",
        }
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(LedgerVersionError) as excinfo:
            load_ledger(path)
        message = str(excinfo.value)
        assert str(LEDGER_VERSION + 1) in message
        assert str(LEDGER_VERSION) in message
        assert "future.jsonl" in message

    def test_older_version_replays_fine(self, tmp_path):
        """A v1 ledger (no worker/claim records) must keep resuming."""
        path = tmp_path / "v1.jsonl"
        digest = spec_digest(SPEC_A)
        records = [
            {"event": "sweep_start", "ledger_version": 1, "total": 1,
             "note": ""},
            {"event": "start", "digest": digest,
             "label": SPEC_A.label(), "attempt": 1},
            {"event": "finish", "digest": digest,
             "label": SPEC_A.label(), "status": "ok", "retries": 0,
             "wall_seconds": 0.01, "seconds": 1.0, "energy_j": 0.1,
             "system": "GRAMER", "error": None, "cached": False},
        ]
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        state = load_ledger(path)
        assert state.version == 1
        assert state.is_completed(SPEC_A)

    def test_versionless_seed_ledger_replays_fine(self, tmp_path):
        """Pre-versioning ledgers have no header field at all."""
        path = tmp_path / "v0.jsonl"
        digest = spec_digest(SPEC_A)
        records = [
            {"event": "sweep_start", "total": 1, "note": ""},
            {"event": "finish", "digest": digest,
             "label": SPEC_A.label(), "status": "ok", "retries": 0,
             "wall_seconds": 0.01, "seconds": 1.0, "energy_j": 0.1,
             "system": "GRAMER", "error": None, "cached": False},
        ]
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        state = load_ledger(path)
        assert state.version is None
        assert state.is_completed(SPEC_A)

    def test_unknown_event_kinds_are_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            ledger.job_finished(ok_result(SPEC_A))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"event": "telemetry", "digest": "zzz"}) + "\n"
            )
        state = load_ledger(path)
        assert state.is_completed(SPEC_A)
        assert state.truncated_lines == 0  # unknown ≠ garbage


class TestClaimRecords:
    def test_claim_lifecycle_replays_into_audit_trail(self, tmp_path):
        path = tmp_path / "run.jsonl"
        digest = spec_digest(SPEC_A)
        with RunLedger(path, worker="w1") as ledger:
            ledger.claim_event(digest, SPEC_A.label(), 1, "claimed")
        with RunLedger(path, worker="w2") as ledger:
            ledger.claim_event(digest, SPEC_A.label(), 2, "takeover")
            ledger.job_started(SPEC_A, attempt=1)
            ledger.job_finished(ok_result(SPEC_A))
            ledger.claim_event(digest, SPEC_A.label(), 2, "released")
        state = load_ledger(path)
        assert [c.action for c in state.claims] == [
            "claimed", "takeover", "released",
        ]
        assert state.claims[1].worker == "w2"
        assert state.claims[1].generation == 2
        assert state.takeover_digests() == {digest}
        assert state.finish_counts[digest] == 1

    def test_worker_provenance_lands_in_records(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path, worker="host-7") as ledger:
            ledger.job_started(SPEC_A, attempt=1)
            ledger.job_finished(ok_result(SPEC_A))
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert all(r["worker"] == "host-7" for r in records)

    def test_terminal_digests_cover_ok_and_failed(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            ledger.job_finished(ok_result(SPEC_A))
            ledger.job_finished(failed_result(SPEC_B, "ValueError: perm"))
        state = load_ledger(path)
        assert state.terminal_digests() == {
            spec_digest(SPEC_A), spec_digest(SPEC_B),
        }
        assert state.completed_digests() == {spec_digest(SPEC_A)}


class TestRunBoundary:
    """The per-run view a sweep worker decides by (docs/resilience.md §2)."""

    def _two_runs(self, path):
        """An earlier run (A ok, B failed), then a run that re-runs B."""
        with RunLedger(path) as ledger:
            ledger.job_started(SPEC_A, attempt=1)
            ledger.job_finished(ok_result(SPEC_A))
            ledger.job_started(SPEC_B, attempt=1)
            ledger.job_finished(failed_result(SPEC_B, "OSError: flaky"))
        boundary = ledger_length(path)
        with RunLedger(path) as ledger:
            ledger.job_started(SPEC_B, attempt=1)
            ledger.job_started(SPEC_B, attempt=2)
            ledger.job_finished(ok_result(SPEC_B, retries=1))
        return boundary

    def test_outcomes_and_starts_split_at_the_boundary(self, tmp_path):
        path = tmp_path / "run.jsonl"
        boundary = self._two_runs(path)
        state = load_ledger(path, boundary)
        a, b = spec_digest(SPEC_A), spec_digest(SPEC_B)
        assert state.before[a].completed and a not in state.after
        assert state.before[b].status == "failed"
        assert state.after[b].completed and state.after[b].retries == 1
        assert state.starts_after == {b: 2}
        # The whole-file view is unchanged by the boundary.
        assert state.attempts == {a: 1, b: 3}
        assert state.completed_digests() == {a, b}

    def test_no_boundary_reads_every_record_as_earlier(self, tmp_path):
        path = tmp_path / "run.jsonl"
        self._two_runs(path)
        state = load_ledger(path)
        assert state.after == {} and state.starts_after == {}
        assert state.before[spec_digest(SPEC_B)].completed

    def test_boundary_zero_reads_every_record_as_this_run(self, tmp_path):
        path = tmp_path / "run.jsonl"
        assert ledger_length(path) == 0  # a missing ledger
        self._two_runs(path)
        state = load_ledger(path, 0)
        assert state.before == {}
        assert state.starts_after == {
            spec_digest(SPEC_A): 1, spec_digest(SPEC_B): 3,
        }


class TestDigests:
    def test_digest_is_stable_and_spec_sensitive(self):
        assert spec_digest(SPEC_A) == spec_digest(SPEC_A)
        assert spec_digest(SPEC_A) != spec_digest(SPEC_B)

    def test_append_mode_accumulates_across_handles(self, tmp_path):
        """Reopening the ledger (a resumed sweep) appends, never truncates."""
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            ledger.job_finished(failed_result(SPEC_A, "OSError: flaky"))
        with RunLedger(path) as ledger:
            ledger.job_finished(ok_result(SPEC_A, retries=1))
        state = load_ledger(path)
        assert state.is_completed(SPEC_A)
        entry = state.entry_for(SPEC_A)
        assert entry is not None and entry.retries == 1
