"""Executor fan-out: determinism, caching, and failure isolation."""

import logging
import time

from repro.runtime import (
    ArtifactCache,
    Executor,
    FaultPlan,
    FaultSpec,
    make_jobspec,
    resolve_jobs,
    run_spec,
)
from repro.runtime.retry import NO_RETRY, RetryPolicy

TINY_GRID = [
    make_jobspec(backend, "3-CF", dataset=graph, scale="tiny")
    for graph in ("citeseer", "p2p")
    for backend in ("gramer", "fractal", "rstream")
]


def _fingerprints(results):
    return [r.fingerprint() for r in results]


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("GRAMER_JOBS", "8")
        assert resolve_jobs(2) == 2

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("GRAMER_JOBS", "3")
        assert resolve_jobs() == 3

    def test_default_and_garbage(self, monkeypatch):
        monkeypatch.setenv("GRAMER_JOBS", "many")
        assert resolve_jobs() == 1
        monkeypatch.delenv("GRAMER_JOBS")
        assert resolve_jobs() == 1
        assert resolve_jobs(0) == 1

    def test_garbage_env_value_is_warned_about(self, monkeypatch, caplog):
        """A typo'd GRAMER_JOBS must not silently serialize the sweep."""
        monkeypatch.setenv("GRAMER_JOBS", "many")
        with caplog.at_level(logging.WARNING, logger="gramer.runtime"):
            assert resolve_jobs() == 1
        messages = [record.getMessage() for record in caplog.records]
        assert any(
            "GRAMER_JOBS" in message and "many" in message
            for message in messages
        )


class TestDeterminism:
    def test_serial_and_pool_results_identical(self, tmp_path):
        """--jobs 1 and --jobs 4 must be byte-identical, fresh either way."""
        serial = Executor(
            jobs=1, cache=ArtifactCache(root=tmp_path / "a")
        ).run(TINY_GRID)
        pooled = Executor(
            jobs=4, cache=ArtifactCache(root=tmp_path / "b"), timeout_s=300
        ).run(TINY_GRID)
        assert all(r.ok for r in serial)
        assert not any(r.cached for r in serial + pooled)
        assert _fingerprints(serial) == _fingerprints(pooled)

    def test_cached_result_equals_fresh(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        spec = TINY_GRID[0]
        fresh = run_spec(spec, cache=cache)
        replay = run_spec(spec, cache=cache)
        assert not fresh.cached and replay.cached
        assert replay.fingerprint() == fresh.fingerprint()

    def test_pool_results_arrive_in_spec_order(self, tmp_path):
        results = Executor(
            jobs=2, cache=ArtifactCache(root=tmp_path), use_cache=False
        ).run(TINY_GRID)
        assert [r.spec for r in results] == TINY_GRID

    def test_cross_process_cache_reuse(self, tmp_path):
        """Pool workers persist results the next (serial) run can replay."""
        cache_root = tmp_path / "shared"
        first = Executor(jobs=2, cache=ArtifactCache(root=cache_root)).run(
            TINY_GRID
        )
        second = Executor(jobs=1, cache=ArtifactCache(root=cache_root)).run(
            TINY_GRID
        )
        assert all(r.cached for r in second)
        assert _fingerprints(first) == _fingerprints(second)


class TestFailureIsolation:
    def test_poisoned_job_does_not_kill_siblings(self, tmp_path):
        """An AncestorBufferOverflowError cell fails alone, siblings finish."""
        poison = make_jobspec(
            "gramer", "5-CF", dataset="mico", scale="tiny",
            config={"ancestor_depth": 2},
        )
        specs = [TINY_GRID[0], poison, TINY_GRID[1]]
        for jobs in (1, 3):
            results = Executor(
                jobs=jobs, cache=ArtifactCache(root=tmp_path / str(jobs))
            ).run(specs)
            assert [r.ok for r in results] == [True, False, True]
            assert "AncestorBufferOverflowError" in results[1].error

    def test_unknown_backend_is_a_failed_result(self, tmp_path):
        spec = make_jobspec("warp-drive", "3-CF", dataset="p2p", scale="tiny")
        result = run_spec(spec, cache=ArtifactCache(root=tmp_path))
        assert not result.ok
        assert "unknown backend" in result.error

    def test_unknown_dataset_is_a_failed_result(self, tmp_path):
        spec = make_jobspec("gramer", "3-CF", dataset="atlantis", scale="tiny")
        result = run_spec(spec, cache=ArtifactCache(root=tmp_path))
        assert not result.ok
        assert result.detail["error_type"] == "KeyError"

    def test_failures_never_cached(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        spec = make_jobspec("gramer", "3-CF", dataset="atlantis", scale="tiny")
        run_spec(spec, cache=cache)
        replay = run_spec(spec, cache=cache)
        assert not replay.cached

    def test_one_hung_job_does_not_reap_healthy_siblings(self, tmp_path):
        """Regression: a single timeout used to cancel the whole pool.

        One job hangs far past the timeout while two siblings run
        normally in the same pool.  The siblings must complete on their
        first attempt; only the hung job is failed/retried, and the stuck
        worker is reaped at round end (wall time stays far below the
        injected hang).
        """
        hang = make_jobspec("gramer", "3-CF", dataset="citeseer", scale="tiny")
        healthy = [
            make_jobspec("fractal", "3-CF", dataset="citeseer", scale="tiny"),
            make_jobspec("rstream", "3-CF", dataset="citeseer", scale="tiny"),
        ]
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    kind="hang",
                    match="gramer:3-CF@citeseer",
                    attempt=1,
                    hang_s=60.0,
                ),
            )
        )
        started = time.perf_counter()
        results = Executor(
            jobs=3,
            timeout_s=5.0,
            cache=ArtifactCache(root=tmp_path),
            retry=RetryPolicy(
                max_attempts=2, base_delay_s=0.01, max_delay_s=0.02
            ),
            faults=plan,
        ).run([hang] + healthy)
        elapsed = time.perf_counter() - started
        assert [r.ok for r in results] == [True, True, True]
        assert results[0].retries == 1  # timed out once, then recovered
        assert results[1].retries == 0 and results[2].retries == 0
        assert elapsed < 45  # never waited out the 60s hang


class TestBackendResults:
    def test_gramer_detail_matches_legacy_cell_shape(self, tmp_path):
        result = run_spec(TINY_GRID[0], cache=ArtifactCache(root=tmp_path))
        assert result.system == "GRAMER"
        assert result.seconds > 0 and result.energy_j > 0
        for key in ("cycles", "execution_seconds", "fixed_overhead_seconds",
                    "vertex_hit_ratio", "edge_hit_ratio", "steals",
                    "embeddings", "summary"):
            assert key in result.detail

    def test_all_backends_agree_on_counts(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        counts = {
            frozenset(
                run_spec(
                    make_jobspec(b, "3-CF", dataset="p2p", scale="tiny"),
                    cache=cache,
                ).detail["embeddings"].items()
            )
            for b in ("gramer", "fractal", "rstream", "software")
        }
        assert len(counts) == 1

    def test_software_backend_reports_counts_without_model_time(self, tmp_path):
        spec = make_jobspec("software", "3-CF", dataset="citeseer", scale="tiny")
        result = run_spec(spec, cache=ArtifactCache(root=tmp_path))
        assert result.ok and result.seconds is None
        assert result.detail["candidates_checked"] > 0
        assert result.wall_seconds > 0

    def test_software_backend_leaves_an_access_trace_empty(self):
        from repro.obs import AccessTrace

        spec = make_jobspec("software", "3-CF", dataset="citeseer", scale="tiny")
        plain = run_spec(spec, use_cache=False)
        trace = AccessTrace()
        traced = run_spec(spec, use_cache=False, access_trace=trace)
        assert traced.ok and len(trace) == 0
        assert traced.detail == plain.detail

    def test_edge_list_jobs_run_from_files(self, tmp_path):
        target = tmp_path / "triangle.txt"
        target.write_text("0 1\n1 2\n0 2\n")
        spec = make_jobspec("software", "3-CF", graph_path=str(target))
        result = run_spec(spec, cache=ArtifactCache(root=tmp_path / "cache"))
        assert result.ok
        assert result.detail["embeddings"][3] == 1

    def test_timeout_produces_failed_result(self, tmp_path):
        heavy = make_jobspec("gramer", "4-MC", dataset="lj", scale="small")
        results = Executor(
            jobs=2,
            timeout_s=0.01,
            cache=ArtifactCache(root=tmp_path),
            retry=NO_RETRY,  # timeouts are transient; don't retry here
        ).run([heavy])
        assert not results[0].ok
        assert "Timeout" in results[0].error
        assert results[0].retries == 0


class TestVertexRankCache:
    def test_on1_ranks_content_addressed(self):
        import numpy as np

        from repro.experiments import datasets
        from repro.graph.reorder import rank_permutation
        from repro.locality.occurrence import occurrence_numbers
        from repro.runtime import cached_vertex_rank

        graph = datasets.load("p2p", "tiny")
        expected = rank_permutation(occurrence_numbers(graph, hops=1))
        np.testing.assert_array_equal(cached_vertex_rank(graph), expected)
        # Second call is a memory hit returning the identical array.
        assert cached_vertex_rank(graph) is cached_vertex_rank(graph)
