"""Differential verification: the turbo engine vs the exact engine.

The reference is ``engine="reference"``, the exact engine.  The contract
is statistical, not byte-identical (that is the exact engine's suite,
``test_engine_equivalence.py``): mining counts, mining
results and exception types must match the reference exactly, while
timing/energy fields must land inside the per-field bands declared in
:mod:`tolerance`.  Randomized examples run derandomized so the bands —
calibrated against a fixed sweep — cannot flake CI on a lucky draw; the
corpus still moves whenever the strategies or the engines change.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.config import GramerConfig
from repro.accel.sim import AncestorBufferOverflowError, make_simulator
from repro.experiments import datasets
from repro.experiments.paper_data import TABLE3_APPS
from repro.graph import erdos_renyi
from repro.mining import make_app
from repro.runtime.backends import build_app
from tests.differential.test_engine_equivalence import (
    APPS,
    configs,
    er_graphs,
    pl_graphs,
)
from tests.differential.tolerance import (
    CORPUS_SPEC,
    TINY_GRID_SPEC,
    Band,
    ToleranceSpec,
    assert_within_tolerance,
    compare,
    snapshot_run,
)


def assert_turbo_within(graph, config, app_name, spec, vertex_rank=None):
    reference = snapshot_run(graph, config, app_name, "reference", vertex_rank)
    turbo = snapshot_run(graph, config, app_name, "turbo", vertex_rank)
    assert_within_tolerance(spec, reference, turbo, context=app_name)


@given(er_graphs(), configs, st.sampled_from(APPS))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_turbo_tolerance_on_random_graphs(graph, config, app_name):
    assert_turbo_within(graph, config, app_name, CORPUS_SPEC)


@given(pl_graphs(), configs, st.sampled_from(APPS))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_turbo_tolerance_on_powerlaw_graphs(graph, config, app_name):
    assert_turbo_within(graph, config, app_name, CORPUS_SPEC)


@given(er_graphs(), configs, st.sampled_from(["3-CF", "3-MC"]))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_turbo_tolerance_with_identity_ranks(graph, config, app_name):
    import numpy as np

    identity = np.arange(graph.num_vertices, dtype=np.int64)
    assert_turbo_within(
        graph, config, app_name, CORPUS_SPEC, vertex_rank=identity
    )


def test_turbo_exception_parity_on_ancestor_overflow():
    """Overflow is schedule-independent without stealing: both must raise."""
    graph = erdos_renyi(8, 28, seed=3)  # complete K8: 4-cliques guaranteed
    config = GramerConfig(ancestor_depth=2, work_stealing=False)
    for engine in ("reference", "turbo"):
        app = make_app("4-CF")
        with pytest.raises(AncestorBufferOverflowError):
            make_simulator(graph, config, engine=engine).run(app)


def _grid_cell(app_name, graph_name):
    scale = "tiny"
    app = build_app(app_name, graph_name, scale)
    loader = datasets.load_labeled if app.needs_labels else datasets.load
    graph = loader(graph_name, scale)
    config = GramerConfig()
    snaps = {}
    for engine in ("reference", "turbo"):
        cell_app = build_app(app_name, graph_name, scale)
        result = make_simulator(graph, config, engine=engine).run(cell_app)
        snaps[engine] = {
            "stats": result.stats.as_dict(),
            "embeddings": result.mining.embeddings_by_size,
            "patterns": result.mining.patterns_by_size,
            "candidates": cell_app.candidates_checked,
        }
    assert_within_tolerance(
        TINY_GRID_SPEC,
        snaps["reference"],
        snaps["turbo"],
        context=f"{app_name}/{graph_name}",
    )


@pytest.mark.parametrize(
    ("app_name", "graph_name"),
    [("3-CF", "citeseer"), ("4-MC", "p2p"), ("FSM", "citeseer")],
)
def test_table3_tiny_subset_within_tolerance(app_name, graph_name):
    """A fast, always-on slice of the Table III grid."""
    _grid_cell(app_name, graph_name)


@pytest.mark.skipif(
    not os.environ.get("GRAMER_DIFF_GRID"),
    reason="full Table III grid diff; set GRAMER_DIFF_GRID=1 to enable",
)
@pytest.mark.parametrize("app_name", TABLE3_APPS)
@pytest.mark.parametrize("graph_name", datasets.DATASET_ORDER)
def test_table3_tiny_full_grid_within_tolerance(app_name, graph_name):
    """Every Table III tiny cell, turbo inside the tiny-grid bands."""
    _grid_cell(app_name, graph_name)


# -- the framework itself ---------------------------------------------------


def _snap(**stats):
    base = {
        "cycles": 1000,
        "candidates_checked": 50,
        "embeddings_accepted": 10,
        "roots_dispatched": 5,
        "steals": 0,
        "steal_attempts": 0,
        "vertex_high_hits": 100,
        "vertex_low_hits": 20,
        "vertex_misses": 5,
        "edge_high_hits": 200,
        "edge_low_hits": 40,
        "edge_misses": 10,
        "compute_cycles": 500,
        "vertex_wait_cycles": 300,
        "edge_wait_cycles": 600,
        "pu_finish_cycles": [1000, 900],
        "pu_busy_cycles": [800, 700],
    }
    base.update(stats)
    return {
        "stats": base,
        "embeddings": {3: 7},
        "patterns": {3: 2},
        "candidates": 50,
    }


def test_band_is_relative_plus_absolute():
    band = Band(rel=0.1, abs=5)
    assert band.allows(100, 115)  # 10 + 5 allowed
    assert not band.allows(100, 116)
    assert band.allows(0, 5)  # abs floor carries zero references
    assert not band.allows(0, 6)


def test_compare_accepts_within_band():
    assert compare(TINY_GRID_SPEC, _snap(), _snap(cycles=1100)) == []


def test_exact_fields_never_tolerated():
    divs = compare(TINY_GRID_SPEC, _snap(), _snap(candidates_checked=51))
    assert [d.field for d in divs] == ["candidates_checked"]
    assert divs[0].kind == "exact"


def test_mining_results_never_tolerated():
    turbo = _snap()
    turbo["patterns"] = {3: 3}
    divs = compare(TINY_GRID_SPEC, _snap(), turbo)
    assert [d.field for d in divs] == ["patterns"]


def test_exception_types_must_match():
    divs = compare(
        TINY_GRID_SPEC, {"error": "AncestorBufferOverflowError"}, _snap()
    )
    assert len(divs) == 1 and divs[0].kind == "error"
    assert (
        compare(TINY_GRID_SPEC, {"error": "ValueError"}, {"error": "ValueError"})
        == []
    )


def test_failure_reports_first_field_with_values_and_band():
    spec = ToleranceSpec(
        name="unit", bands={"cycles": Band(rel=0.01, abs=0)}
    )
    with pytest.raises(AssertionError) as excinfo:
        assert_within_tolerance(
            spec, _snap(), _snap(cycles=2000), context="3-CF/unit"
        )
    message = str(excinfo.value)
    assert "'cycles'" in message
    assert "reference=1000" in message
    assert "turbo=2000" in message
    assert "rel=0.01" in message
    assert "3-CF/unit" in message


def test_exact_divergence_sorts_before_band_divergence():
    divs = compare(
        TINY_GRID_SPEC,
        _snap(),
        _snap(candidates_checked=51, cycles=100000),
    )
    assert divs[0].field == "candidates_checked"
    assert divs[1].field == "cycles"


def test_elementwise_band_flags_single_pu():
    turbo = _snap(pu_finish_cycles=[1000, 90])
    divs = compare(TINY_GRID_SPEC, _snap(), turbo)
    assert [d.field for d in divs] == ["pu_finish_cycles[1]"]
