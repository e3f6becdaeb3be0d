"""Chaos harness: fault-injected sweeps must converge to fault-free results.

The acceptance contract for the resilience layer (docs/resilience.md):
with a seeded fault plan injecting worker SIGKILLs, transient exceptions,
and cache corruption into a pool sweep, the retried/recovered results are
byte-identical (``JobResult.fingerprint``) to a fault-free run, and an
interrupted sweep resumed via ``gramer sweep --resume`` completes without
recomputing already-successful cells.
"""

import logging

import pytest

from repro.runtime import (
    ArtifactCache,
    Executor,
    FaultPlan,
    FaultSpec,
    RunLedger,
    load_ledger,
    make_jobspec,
    parse_fault_plan,
    spec_digest,
)
from repro.runtime.backends import _REGISTRY, register_backend
from repro.runtime.retry import RetryPolicy
from repro.runtime.spec import JobResult

FAST = RetryPolicy(max_attempts=3, base_delay_s=0.001, max_delay_s=0.002)

TINY_GRID = [
    make_jobspec(backend, "3-CF", dataset=graph, scale="tiny")
    for graph in ("citeseer", "p2p")
    for backend in ("gramer", "fractal", "rstream")
]

KILLED = "gramer:3-CF@citeseer/tiny"
RAISED = "fractal:3-CF@citeseer/tiny"
CORRUPTED = "rstream:3-CF@citeseer/tiny"

# The corrupt fault fires post-success; collateral pool breakage from the
# kill may push that success to a later attempt, so script it for every
# attempt the retry budget allows (it can only fire once — one success).
CHAOS_PLAN = FaultPlan(
    faults=(
        FaultSpec(kind="kill", attempt=1, match=KILLED),
        FaultSpec(kind="raise", attempt=1, match=RAISED),
        FaultSpec(kind="corrupt", attempt=1, match=CORRUPTED),
        FaultSpec(kind="corrupt", attempt=2, match=CORRUPTED),
        FaultSpec(kind="corrupt", attempt=3, match=CORRUPTED),
    )
)


def _fingerprints(results):
    return [r.fingerprint() for r in results]


def _by_label(results):
    return {r.spec.label(): r for r in results}


class TestFaultInjectedSweepConverges:
    def test_three_fault_kinds_yield_byte_identical_results(self, tmp_path):
        """kill + raise + corrupt injected into a pool sweep: same bytes."""
        clean = Executor(
            jobs=2, cache=ArtifactCache(root=tmp_path / "clean")
        ).run(TINY_GRID)
        chaos_cache = ArtifactCache(root=tmp_path / "chaos")
        chaotic = Executor(
            jobs=2,
            cache=chaos_cache,
            retry=FAST,
            faults=CHAOS_PLAN,
        ).run(TINY_GRID)

        assert all(r.ok for r in clean)
        assert all(r.ok for r in chaotic)
        assert _fingerprints(chaotic) == _fingerprints(clean)

        by_label = _by_label(chaotic)
        # The SIGKILLed worker and the injected raise both forced retries;
        # retries are provenance, so fingerprints still matched above.
        assert by_label[KILLED].retries >= 1
        assert by_label[RAISED].retries >= 1

        # The corrupt fault bit-flipped the stored entry *after* success:
        # a cache replay must quarantine it and recompute, not serve
        # garbage — and the recomputed cell is again byte-identical.
        replay_cache = ArtifactCache(root=tmp_path / "chaos")
        replay = Executor(jobs=1, cache=replay_cache).run(TINY_GRID)
        assert _fingerprints(replay) == _fingerprints(clean)
        replayed = _by_label(replay)
        assert replay_cache.stats.quarantined == 1
        assert not replayed[CORRUPTED].cached  # recomputed from scratch
        healthy = set(replayed) - {CORRUPTED}
        assert all(replayed[label].cached for label in healthy)

    def test_fault_plan_from_environment(self, tmp_path, monkeypatch):
        """$GRAMER_FAULTS wires the same plan without touching call sites."""
        spec = TINY_GRID[1]  # fractal:3-CF@citeseer
        clean = Executor(
            jobs=1, cache=ArtifactCache(root=tmp_path / "clean")
        ).run([spec])
        monkeypatch.setenv("GRAMER_FAULTS", f"raise@1={RAISED}")
        chaotic = Executor(
            jobs=1,
            cache=ArtifactCache(root=tmp_path / "chaos"),
            retry=FAST,
        ).run([spec])
        assert chaotic[0].ok and chaotic[0].retries == 1
        assert chaotic[0].fingerprint() == clean[0].fingerprint()

    def test_malformed_fault_tokens_warn_and_drop(self, caplog):
        """A typo'd GRAMER_FAULTS token never silently disables chaos."""
        with caplog.at_level(logging.WARNING, logger="gramer.runtime"):
            plan = parse_fault_plan("explode@x;raise@2=fractal")
        assert len(plan.faults) == 1
        assert plan.faults[0].kind == "raise"
        assert plan.faults[0].attempt == 2
        messages = [record.getMessage() for record in caplog.records]
        assert any("explode@x" in message for message in messages)


class TestSweepResumeCLI:
    """`gramer sweep --ledger/--resume` end-to-end through the real CLI."""

    APPS = ["3-CF"]
    DATASETS = ["citeseer", "p2p"]
    BACKENDS = ["gramer", "fractal"]
    FAILING = "gramer:3-CF@citeseer/tiny"

    def _sweep(self, ledger, resume=None):
        from repro.cli import main

        argv = [
            "sweep",
            "--apps", *self.APPS,
            "--datasets", *self.DATASETS,
            "--backends", *self.BACKENDS,
            "--scale", "tiny",
            "--jobs", "1",
            "--no-cache",  # resume must come from the ledger, not the cache
            "--retries", "1",
            "--ledger", str(ledger),
        ]
        if resume is not None:
            argv += ["--resume", str(resume)]
        return main(argv)

    def _grid_specs(self):
        from repro.experiments.harness import cell_jobspec

        return {
            f"{backend}:{app}@{graph}/tiny": cell_jobspec(
                backend, app, graph, "tiny"
            )
            for app in self.APPS
            for graph in self.DATASETS
            for backend in self.BACKENDS
        }

    def test_partial_failure_then_resume_completes(
        self, tmp_path, monkeypatch, capsys
    ):
        ledger = tmp_path / "sweep.jsonl"

        # First pass: one cell fails (injected, no retry budget) -> exit 3.
        monkeypatch.setenv("GRAMER_FAULTS", f"raise@1={self.FAILING}")
        with pytest.raises(SystemExit) as excinfo:
            self._sweep(ledger)
        assert excinfo.value.code == 3  # partial: some ok, some failed

        specs = self._grid_specs()
        state = load_ledger(ledger)
        succeeded = [
            label for label in specs if label != self.FAILING
        ]
        for label in succeeded:
            assert state.is_completed(specs[label])
        assert not state.is_completed(specs[self.FAILING])

        # Second pass: faults off, resume from the ledger -> exit 0, and
        # only the failed cell re-ran (attempt counts prove it).
        monkeypatch.delenv("GRAMER_FAULTS")
        self._sweep(ledger, resume=ledger)  # no SystemExit: every cell ok
        capsys.readouterr()

        state = load_ledger(ledger)
        for label, spec in specs.items():
            assert state.is_completed(spec)
        for label in succeeded:
            assert state.attempts[spec_digest(specs[label])] == 1
        assert state.attempts[spec_digest(specs[self.FAILING])] == 2


class _InterruptingBackend:
    """Test backend whose run is a ^C arriving mid-sweep."""

    name = "chaos-interrupt"
    system = "chaos"

    def run(self, spec, *, instrument=None, access_trace=None) -> JobResult:
        raise KeyboardInterrupt


@pytest.fixture
def interrupting_backend():
    register_backend(_InterruptingBackend(), override=True)
    yield _InterruptingBackend.name
    _REGISTRY.pop(_InterruptingBackend.name, None)


class TestInterruptedSweep:
    def test_interrupt_flushes_ledger_and_propagates(
        self, tmp_path, interrupting_backend
    ):
        """^C mid-sweep: completed work is durable, the interrupt escapes."""
        specs = [
            TINY_GRID[0],
            make_jobspec(
                interrupting_backend, "3-CF", dataset="p2p", scale="tiny"
            ),
            TINY_GRID[2],
        ]
        ledger = RunLedger(tmp_path / "run.jsonl")
        executor = Executor(
            jobs=1,
            cache=ArtifactCache(root=tmp_path / "cache"),
            ledger=ledger,
        )
        with pytest.raises(KeyboardInterrupt):
            executor.run(specs)
        ledger.close()

        state = load_ledger(tmp_path / "run.jsonl")
        assert state.is_completed(specs[0])  # finished before the ^C
        assert not state.is_completed(specs[1])  # in flight: start only
        assert state.attempts[spec_digest(specs[1])] == 1
        assert state.entry_for(specs[2]) is None  # never started


class TestResumeVerifiesCachedArtifacts:
    """``--resume`` must not trust an ``ok`` ledger line on faith.

    A ledger can mark a cell ``ok`` while its cached artifact has since
    been deleted or corrupted (disk cleanup, quarantine, a partial
    rsync).  With the cache enabled, resume cross-checks each ``ok``
    digest against the artifact checksum and re-runs cells whose
    artifact is gone — otherwise downstream ``manifest seal`` would have
    nothing to bind.
    """

    APPS = ["3-CF"]
    DATASETS = ["citeseer"]
    BACKENDS = ["gramer", "fractal"]
    VICTIM = "gramer:3-CF@citeseer/tiny"

    @pytest.fixture
    def private_cache(self, tmp_path):
        """A per-test default cache so entry deletion is observable."""
        import os

        from repro.runtime.cache import reset_default_cache

        previous = os.environ.get("GRAMER_CACHE_DIR")
        os.environ["GRAMER_CACHE_DIR"] = str(tmp_path / "cache")
        reset_default_cache()
        yield
        if previous is None:
            os.environ.pop("GRAMER_CACHE_DIR", None)
        else:
            os.environ["GRAMER_CACHE_DIR"] = previous
        reset_default_cache()

    def _sweep(self, ledger, resume=None):
        from repro.cli import main

        argv = [
            "sweep",
            "--apps", *self.APPS,
            "--datasets", *self.DATASETS,
            "--backends", *self.BACKENDS,
            "--scale", "tiny",
            "--jobs", "1",
            "--retries", "1",
            "--ledger", str(ledger),
        ]
        if resume is not None:
            argv += ["--resume", str(resume)]
        return main(argv)

    def _grid_specs(self):
        from repro.experiments.harness import cell_jobspec

        return {
            f"{backend}:{app}@{graph}/tiny": cell_jobspec(
                backend, app, graph, "tiny"
            )
            for app in self.APPS
            for graph in self.DATASETS
            for backend in self.BACKENDS
        }

    def test_ok_cell_with_deleted_artifact_reruns_on_resume(
        self, tmp_path, private_cache, capsys
    ):
        from repro.runtime import JOB_KIND, default_cache

        ledger = tmp_path / "sweep.jsonl"
        self._sweep(ledger)  # clean pass: every cell ok and cached
        capsys.readouterr()

        specs = self._grid_specs()
        entry = default_cache().entry_path(
            JOB_KIND, specs[self.VICTIM].cache_key()
        )
        assert entry.exists()
        entry.unlink()  # the ledger still says ok; the artifact is gone

        self._sweep(ledger, resume=ledger)  # no SystemExit: all cells ok
        out = capsys.readouterr().out
        assert "re-running" in out and self.VICTIM in out

        state = load_ledger(ledger)
        for label, spec in specs.items():
            assert state.is_completed(spec)
            expected = 2 if label == self.VICTIM else 1
            assert state.attempts[spec_digest(spec)] == expected, label
        # The resumed run restored the artifact the ledger promised.
        assert entry.exists()
