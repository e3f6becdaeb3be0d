"""The figure sweeps run their cells as job specs through one Executor."""

from dataclasses import replace

import pytest

from repro.experiments import (
    ablations,
    dfs_vs_bfs,
    fig11_energy,
    fig12_lamh,
    fig13_pipeline,
    fig14_sensitivity,
    run_all,
    table3_runtime,
)
from repro.experiments.harness import run_cells
from repro.runtime import backends
from repro.runtime.cache import ArtifactCache
from repro.runtime.executor import Executor
from repro.runtime.ledger import RunLedger
from repro.runtime.spec import JobResult, failed_result

_DETAIL = {
    "cycles": 100,
    "steals": 0,
    "vertex_hit_ratio": 0.5,
    "edge_hit_ratio": 0.5,
    "embeddings": {2: 10, 3: 5},
}


class _RecordingExecutor:
    """Records each ``run``'s specs and answers with a fixed detail."""

    def __init__(self):
        self.batches = []

    def run(self, specs, progress=None):
        self.batches.append(list(specs))
        return [
            JobResult(spec, "stub", True, None, None, dict(_DETAIL))
            for spec in specs
        ]

    @property
    def submitted(self):
        return [spec for batch in self.batches for spec in batch]


def _executor(tmp_path, jobs=1, use_cache=True):
    cache = ArtifactCache(root=tmp_path / f"cache-{jobs}", use_disk=False)
    return Executor(jobs=jobs, use_cache=use_cache, cache=cache)


def _table3_gramer(app, graph):
    (spec,) = (
        spec
        for spec in table3_runtime.cell_specs("tiny", [app], [graph])
        if spec.backend == "gramer"
    )
    return spec


#: Each converted run (the ablations panel by panel: arbitrator stays direct).
PANELS = [
    fig12_lamh.run,
    fig13_pipeline.run,
    fig14_sensitivity.run,
    dfs_vs_bfs.run,
    ablations.run_steal_selector,
    ablations.run_rank_source,
    ablations.run_partition_sweep,
]


@pytest.mark.parametrize("panel", PANELS)
def test_each_batch_submits_distinct_gramer_specs(panel):
    executor = _RecordingExecutor()
    panel("tiny", executor=executor)
    assert executor.batches
    for batch in executor.batches:
        assert len(set(batch)) == len(batch)
        assert all(spec.backend == "gramer" for spec in batch)


@pytest.mark.parametrize(
    "panel, app, graph",
    [
        (fig13_pipeline.run_slot_sweep, "5-CF", "mico"),
        (fig13_pipeline.run_work_stealing, "5-CF", "lj"),
        (fig14_sensitivity.run_lambda_sweep, "5-CF", "p2p"),
        (dfs_vs_bfs.run, "4-MC", "patents"),
        (ablations.run_steal_selector, "5-CF", "mico"),
        (ablations.run_partition_sweep, "5-CF", "mico"),
    ],
)
def test_default_valued_point_is_the_table3_cell(panel, app, graph):
    executor = _RecordingExecutor()
    panel("tiny", executor=executor)
    key = _table3_gramer(app, graph).cache_key()
    assert [s.cache_key() for s in executor.submitted].count(key) == 1


def test_rank_source_identity_run_carries_only_the_param():
    executor = _RecordingExecutor()
    ablations.run_rank_source("tiny", graphs=["p2p"], executor=executor)
    on1, identity = executor.submitted
    assert on1.params == ()
    assert identity.params == (("use_on1_ranks", False),)
    assert identity.config == on1.config


def test_fig11_energy_defaults_to_the_table3_grid():
    executor = _RecordingExecutor()
    fig11_energy.run_energy("tiny", executor=executor)
    assert executor.batches == [table3_runtime.cell_specs("tiny")]


def test_fig11_total_time_submits_its_table3_cells():
    class Timed(_RecordingExecutor):
        def run(self, specs, progress=None):
            return [replace(r, seconds=1.0) for r in super().run(specs)]

    executor = Timed()
    fig11_energy.run_total_time("tiny", executor=executor)
    assert executor.batches == [table3_runtime.cell_specs("tiny", ["4-MC"])]
    assert len(executor.submitted) == 21  # 7 graphs x 3 systems


def test_fig11_total_time_honours_no_cache(monkeypatch):
    fig11_energy.run_total_time("tiny", app="3-CF")  # warms the cache
    calls = []
    real = backends.GramerBackend.run

    def counting(self, spec, **kwargs):
        calls.append(spec)
        return real(self, spec, **kwargs)

    monkeypatch.setattr(backends.GramerBackend, "run", counting)
    fig11_energy.run_total_time(
        "tiny", app="3-CF", executor=Executor(use_cache=False)
    )
    assert calls == [
        spec
        for spec in table3_runtime.cell_specs("tiny", ["3-CF"])
        if spec.backend == "gramer"
    ]


def test_failed_cell_raises():
    class Failing(_RecordingExecutor):
        def run(self, specs, progress=None):
            return [failed_result(spec, "ValueError: boom") for spec in specs]

    with pytest.raises(RuntimeError, match="boom"):
        fig13_pipeline.run_work_stealing("tiny", executor=Failing())


def test_warm_rerun_makes_no_simulator_calls(tmp_path, monkeypatch):
    executor = _executor(tmp_path)
    first = fig13_pipeline.run_work_stealing(
        "tiny", graphs=["citeseer"], executor=executor
    )
    calls = []
    real = backends.GramerBackend.run

    def counting(self, spec, **kwargs):
        calls.append(spec)
        return real(self, spec, **kwargs)

    monkeypatch.setattr(backends.GramerBackend, "run", counting)
    second = fig13_pipeline.run_work_stealing(
        "tiny", graphs=["citeseer"], executor=executor
    )
    assert calls == []
    assert second == first


def test_rows_equal_at_one_and_two_workers(tmp_path):
    rows = [
        fig13_pipeline.run_slot_sweep(
            "tiny",
            graphs=["citeseer"],
            executor=_executor(tmp_path, jobs=jobs, use_cache=False),
        )
        for jobs in (1, 2)
    ]
    assert rows[0] == rows[1]


def test_run_cells_runs_each_distinct_spec_once():
    executor = _RecordingExecutor()
    spec = _table3_gramer("3-CF", "citeseer")
    cells = run_cells({"a": spec, "b": spec}, executor)
    assert executor.batches == [[spec]]
    assert cells == {"a": _DETAIL, "b": _DETAIL}


def test_failing_module_becomes_a_failure_report(tmp_path, monkeypatch):
    monkeypatch.delenv("GRAMER_JOBS", raising=False)

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(fig12_lamh, "run", boom)
    run_all.main(
        ["--scale", "tiny", "--only", "fig12", "table2", "--out", str(tmp_path)]
    )
    text = (tmp_path / "fig12.txt").read_text("utf-8")
    assert text == "fig12 FAILED: RuntimeError: boom\n"
    assert "Table II" in (tmp_path / "table2.txt").read_text("utf-8")


def test_resumed_ledger_cells_carry_their_result(tmp_path):
    path = tmp_path / "run.jsonl"
    rows = [
        fig13_pipeline.run_work_stealing(
            "tiny",
            graphs=["citeseer"],
            executor=Executor(jobs=1, ledger=RunLedger(path)),
        )
        for _ in range(2)
    ]
    assert rows[1] == rows[0]

    spec = _table3_gramer("3-CF", "citeseer")
    first, second = (
        Executor(jobs=1, ledger=RunLedger(path)).run([spec])[0]
        for _ in range(2)
    )
    assert "resumed" not in first.detail
    assert second.detail == {**first.detail, "resumed": True}
