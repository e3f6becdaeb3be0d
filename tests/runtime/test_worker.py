"""One sweep scheduler: forked claim/lease workers and the run boundary.

``Executor(jobs=N)`` and every sweep with a ledger run on ``SweepWorker``s
(docs/resilience.md §1–2).  These tests pin what that routing promises:
a resume at any width re-runs only what failed, a hand-launched worker
honours the same boundary, a dead worker's cell is retried without
waiting out its lease, a cell whose attempts are spent is ledgered by
the parent, and claims stay exclusive with more workers than cores.
"""

import os
import time

import pytest

from repro.cli import main
from repro.experiments.harness import cell_jobspec
from repro.runtime import (
    ArtifactCache,
    Executor,
    FaultPlan,
    FaultSpec,
    RunLedger,
    load_ledger,
    make_jobspec,
    spec_digest,
)
from repro.runtime.retry import NO_RETRY, RetryPolicy
from repro.runtime.spec import failed_result

GRID = ["--apps", "3-CF", "--datasets", "citeseer", "p2p",
        "--backends", "gramer", "fractal", "--scale", "tiny"]
FAILING = "fractal:3-CF@p2p/tiny"


def _grid_specs():
    return {
        spec.label(): spec
        for spec in (
            cell_jobspec(backend, "3-CF", graph, "tiny")
            for graph in ("citeseer", "p2p")
            for backend in ("gramer", "fractal")
        )
    }


class TestResumeAtWidth:
    def test_resume_at_two_workers_reruns_only_the_failure(
        self, tmp_path, monkeypatch, capsys
    ):
        ledger = tmp_path / "sweep.jsonl"
        argv = ["sweep", *GRID, "--jobs", "2", "--no-cache",
                "--retries", "1"]

        monkeypatch.setenv("GRAMER_FAULTS", f"raise@1={FAILING}")
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--ledger", str(ledger)])
        assert excinfo.value.code == 3  # partial
        monkeypatch.delenv("GRAMER_FAULTS")

        main(argv + ["--resume", str(ledger)])  # every cell ok: no exit
        out = capsys.readouterr().out
        assert "3 cached/resumed" in out

        state = load_ledger(ledger)
        for label, spec in _grid_specs().items():
            assert state.is_completed(spec), label
            expected = 2 if label == FAILING else 1
            assert state.attempts[spec_digest(spec)] == expected, label


class TestHandLaunchedWorker:
    def test_worker_reruns_a_failure_recorded_before_it_started(
        self, tmp_path, capsys
    ):
        spec = cell_jobspec("fractal", "3-CF", "citeseer", "tiny")
        ledger = tmp_path / "run.jsonl"
        with RunLedger(ledger, worker="earlier") as earlier:
            earlier.job_started(spec, attempt=1)
            earlier.job_finished(failed_result(spec, "OSError: flaky disk"))

        main(["worker", "--apps", "3-CF", "--datasets", "citeseer",
              "--backends", "fractal", "--scale", "tiny",
              "--ledger", str(ledger), "--claims", str(tmp_path / "claims"),
              "--worker-id", "late"])
        assert "computed 1, failed 0" in capsys.readouterr().out

        state = load_ledger(ledger)
        assert state.is_completed(spec)
        assert state.attempts[spec_digest(spec)] == 2


class TestFleetDeaths:
    def test_killed_worker_is_replaced_without_a_lease_wait(self, tmp_path):
        """kill@1 on one cell: done in far less than the 30 s lease."""
        killed = make_jobspec("gramer", "3-CF", dataset="citeseer",
                              scale="tiny")
        sibling = make_jobspec("fractal", "3-CF", dataset="citeseer",
                               scale="tiny")
        path = tmp_path / "run.jsonl"
        started = time.perf_counter()
        with RunLedger(path) as ledger:
            results = Executor(
                jobs=2,
                cache=ArtifactCache(root=tmp_path / "cache"),
                ledger=ledger,
                retry=RetryPolicy(max_attempts=2, base_delay_s=0.001),
                faults=FaultPlan(faults=(
                    FaultSpec(kind="kill", attempt=1, match=killed.label()),
                )),
            ).run([killed, sibling])
        elapsed = time.perf_counter() - started
        assert elapsed < 15.0  # the default lease is 30 s
        assert [r.ok for r in results] == [True, True]
        assert results[0].retries == 1 and results[1].retries == 0

        state = load_ledger(path)
        assert state.attempts[spec_digest(killed)] == 2
        assert state.finish_counts[spec_digest(killed)] == 1
        claims = tmp_path / "run.jsonl.claims"
        assert not [p for p in claims.iterdir() if p.suffix == ".claim"]

    def test_spent_timeout_is_ledgered_by_the_parent(self, tmp_path):
        heavy = make_jobspec("gramer", "4-MC", dataset="lj", scale="small")
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            (result,) = Executor(
                jobs=2,
                timeout_s=0.01,
                use_cache=False,
                ledger=ledger,
                retry=NO_RETRY,
            ).run([heavy])
        assert not result.ok and "TimeoutError" in result.error
        entry = load_ledger(path).entry_for(heavy)
        assert entry is not None and entry.status == "failed"
        assert entry.error == result.error


class TestFleetStress:
    def test_more_workers_than_cores_compute_each_cell_once(self, tmp_path):
        """Claims stay exclusive with the fleet wider than the host."""
        specs = [
            make_jobspec(backend, app, dataset=graph, scale="tiny")
            for app in ("3-CF", "3-MC")
            for graph in ("citeseer", "p2p")
            for backend in ("fractal", "rstream", "software")
        ]
        path = tmp_path / "run.jsonl"
        started = time.perf_counter()
        with RunLedger(path) as ledger:
            results = Executor(
                jobs=min(len(specs), (os.cpu_count() or 1) + 2),
                use_cache=False,
                ledger=ledger,
            ).run(specs)
        assert time.perf_counter() - started < 60.0
        assert [r.spec for r in results] == specs
        assert all(r.ok and r.retries == 0 for r in results)

        state = load_ledger(path)
        for spec in specs:
            assert state.finish_counts[spec_digest(spec)] == 1, spec.label()
        assert not state.takeover_digests()
        claims = tmp_path / "run.jsonl.claims"
        assert not [p for p in claims.iterdir() if p.suffix == ".claim"]
