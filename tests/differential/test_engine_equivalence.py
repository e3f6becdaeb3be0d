"""Differential verification: the exact engine vs the per-event oracle.

The calendar-queue engine (:class:`repro.accel.sim.GramerSimulator`, what
``make_simulator`` returns for ``"fast"`` and ``"reference"``) promises
*bit-identical* ``SimStats`` to :class:`~.engine_oracle.ReferenceSimulator`
— not approximately equal, byte-for-byte equal after JSON serialisation —
for every configuration and workload.  This suite is the proof:

* randomized property tests (hypothesis) over the GramerConfig space ×
  random graphs × applications, and
* the Table III tiny grid, as a small always-on subset plus the full
  6-app × 7-dataset sweep gated behind ``GRAMER_DIFF_GRID=1`` (the CI
  differential job sets it; locally it adds ~2 minutes).

When they throw (e.g. ancestor-buffer overflow on deep patterns with a
shallow buffer), they must throw the *same* exception type.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.config import GramerConfig
from repro.accel.sim import DEFAULT_ENGINE, make_simulator
from repro.experiments import datasets
from repro.experiments.paper_data import TABLE3_APPS
from repro.graph import erdos_renyi, powerlaw_cluster, random_labels
from repro.mining import make_app
from repro.runtime.backends import build_app

from .engine_oracle import ReferenceSimulator

APPS = ["3-CF", "4-CF", "3-MC", "4-MC", "FSM-2"]

#: The engine name these suites give the per-event oracle.
ORACLE = "oracle"


def build_simulator(graph, config, engine, **kwargs):
    """``make_simulator(..., engine=engine)``, or the oracle for ``ORACLE``."""
    if engine == ORACLE:
        return ReferenceSimulator(graph, config, **kwargs)
    return make_simulator(graph, config, engine=engine, **kwargs)


def _snapshot(graph, config, app_name, engine, vertex_rank=None):
    """Run one engine to a comparable value: stats + counts, or the error.

    Construction and run are folded together because the oracle validates
    (and builds the hierarchy) in ``__init__`` while the engine defers to
    ``run`` — a config rejected by one must compare equal to the same
    rejection by the other.
    """
    app = make_app(app_name)
    try:
        result = build_simulator(
            graph, config, engine, vertex_rank=vertex_rank
        ).run(app)
    except Exception as error:  # noqa: BLE001 - the type IS the payload
        return {"error": type(error).__name__}
    return {
        "stats": json.dumps(result.stats.as_dict(), sort_keys=True),
        "embeddings": result.mining.embeddings_by_size,
        "patterns": result.mining.patterns_by_size,
        "candidates": app.candidates_checked,
    }


def assert_engines_agree(graph, config, app_name, vertex_rank=None):
    engine, oracle = (
        _snapshot(graph, config, app_name, name, vertex_rank)
        for name in (DEFAULT_ENGINE, ORACLE)
    )
    if engine != oracle:
        for key in oracle:
            if engine.get(key) != oracle.get(key):
                raise AssertionError(
                    f"engine and oracle diverge on {key!r} for {app_name}: "
                    f"engine={engine.get(key)!r} oracle={oracle.get(key)!r}"
                )
    assert engine == oracle


configs = st.builds(
    GramerConfig,
    num_pus=st.integers(1, 4),
    slots_per_pu=st.integers(1, 6),
    ancestor_depth=st.integers(4, 16),
    work_stealing=st.booleans(),
    steal_victim_select=st.sampled_from(["stealing_buffer", "random"]),
    arbitrator=st.sampled_from(["round_robin", "degree_balanced"]),
    onchip_entries=st.sampled_from([16, 48, 128, 512]),
    num_partitions=st.sampled_from([1, 2, 4, 8]),
    cache_ways=st.integers(1, 4),
    vertex_line_entries=st.integers(1, 4),
    edge_line_entries=st.integers(1, 4),
    tau=st.sampled_from([None, 0.25, 0.75]),
    lam=st.sampled_from([0.0, 0.5, 1.0, 8.0]),
    low_policy=st.sampled_from(["locality", "lru", "uniform"]),
    probe_mode=st.sampled_from(["binary", "scan"]),
    dram_latency=st.sampled_from([20, 100, 700]),
    dram_channels=st.sampled_from([1, 2, 4]),
    dram_cycles_per_transfer=st.integers(1, 2),
    issue_cycles=st.integers(1, 2),
    check_cycles=st.integers(1, 2),
    process_cycles=st.integers(1, 3),
    prefetch_interval=st.integers(1, 4),
)


@st.composite
def er_graphs(draw):
    n = draw(st.integers(6, 32))
    max_edges = n * (n - 1) // 2
    m = draw(st.integers(min(n, max_edges), min(3 * n, max_edges)))
    graph = erdos_renyi(n, m, seed=draw(st.integers(0, 2**16)))
    return random_labels(graph, draw(st.integers(1, 3)), seed=7)


@st.composite
def pl_graphs(draw):
    graph = powerlaw_cluster(
        num_vertices=draw(st.integers(10, 40)),
        edges_per_vertex=draw(st.integers(2, 3)),
        triad_probability=draw(st.sampled_from([0.1, 0.5])),
        seed=draw(st.integers(0, 2**16)),
    )
    return random_labels(graph, draw(st.integers(1, 3)), seed=11)


@given(er_graphs(), configs, st.sampled_from(APPS))
@settings(max_examples=120, deadline=None)
def test_engines_bit_identical_on_random_graphs(graph, config, app_name):
    assert_engines_agree(graph, config, app_name)


@given(pl_graphs(), configs, st.sampled_from(APPS))
@settings(max_examples=80, deadline=None)
def test_engines_bit_identical_on_powerlaw_graphs(graph, config, app_name):
    assert_engines_agree(graph, config, app_name)


@given(er_graphs(), configs, st.sampled_from(["3-CF", "3-MC"]))
@settings(max_examples=40, deadline=None)
def test_engines_bit_identical_with_identity_ranks(graph, config, app_name):
    """The rank source is orthogonal to the engine: identity ranks too."""
    import numpy as np

    identity = np.arange(graph.num_vertices, dtype=np.int64)
    assert_engines_agree(graph, config, app_name, vertex_rank=identity)


def _grid_cell(app_name, graph_name):
    scale = "tiny"
    app = build_app(app_name, graph_name, scale)
    loader = datasets.load_labeled if app.needs_labels else datasets.load
    graph = loader(graph_name, scale)
    config = GramerConfig()
    results = {}
    for engine in (DEFAULT_ENGINE, ORACLE):
        cell_app = build_app(app_name, graph_name, scale)
        result = build_simulator(graph, config, engine).run(cell_app)
        results[engine] = (
            json.dumps(result.stats.as_dict(), sort_keys=True),
            result.mining.embeddings_by_size,
            result.mining.patterns_by_size,
            cell_app.candidates_checked,
        )
    assert results[DEFAULT_ENGINE] == results[ORACLE], (app_name, graph_name)


@pytest.mark.parametrize(
    ("app_name", "graph_name"),
    [("3-CF", "citeseer"), ("4-MC", "p2p"), ("FSM", "citeseer")],
)
def test_table3_tiny_subset(app_name, graph_name):
    """A fast, always-on slice of the Table III grid."""
    _grid_cell(app_name, graph_name)


@pytest.mark.skipif(
    not os.environ.get("GRAMER_DIFF_GRID"),
    reason="full Table III grid diff; set GRAMER_DIFF_GRID=1 to enable",
)
@pytest.mark.parametrize("app_name", TABLE3_APPS)
@pytest.mark.parametrize("graph_name", datasets.DATASET_ORDER)
def test_table3_tiny_full_grid(app_name, graph_name):
    """Every Table III tiny cell, engine and oracle, byte-identical."""
    _grid_cell(app_name, graph_name)
