"""Differential verification of the engine's observability hooks.

A hooked run of :class:`repro.accel.sim.GramerSimulator` must emit what
the per-event :class:`~.engine_oracle.ReferenceSimulator` emits, in the
same order: with a :class:`~repro.obs.hooks.SimInstrument`, the same
tracer JSONL lines, timeline windows and steal latencies; with an
:class:`~repro.obs.access.AccessTrace`, the same access records.  The
inputs are ``test_engine_equivalence.py``'s strategies and tiny grid
subset, with the calendar queue's ring also shrunk to 1, 2 and 8 cycles.
Small timeline windows make steps straddle window boundaries, so a
counter charged at the wrong event shows up in a window's delta.
"""

import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import sim
from repro.accel.config import GramerConfig
from repro.accel.sim import DEFAULT_ENGINE
from repro.experiments import datasets
from repro.mining import make_app
from repro.obs import AccessTrace, SimInstrument, Tracer
from repro.runtime.backends import build_app

from .test_engine_equivalence import (
    APPS,
    ORACLE,
    build_simulator,
    configs,
    er_graphs,
    pl_graphs,
)

RINGS = [1, 2, 8]
WINDOWS = [16, 64, 1024]


def _hooked_snapshot(graph, config, make_run_app, engine, window):
    """Everything the hooks saw in one instrumented and one traced run."""
    snapshot = {}
    instrument = SimInstrument(tracer=Tracer(), window_cycles=window)
    trace = AccessTrace()
    for hook in ({"instrument": instrument}, {"access_trace": trace}):
        app = make_run_app()
        try:
            result = build_simulator(graph, config, engine, **hook).run(app)
        except Exception as error:  # noqa: BLE001 - the type IS the payload
            outcome = {"error": type(error).__name__}
        else:
            outcome = {
                "stats": json.dumps(result.stats.as_dict(), sort_keys=True),
                "embeddings": result.mining.embeddings_by_size,
                "patterns": result.mining.patterns_by_size,
            }
        snapshot[next(iter(hook))] = outcome
    snapshot["tracer"] = [
        json.dumps(event.as_chrome(), separators=(",", ":"))
        for event in instrument.tracer.events
    ]
    snapshot["windows"] = [w.as_dict() for w in instrument.sampler.windows]
    snapshot["steal_latencies"] = instrument.steal_latencies
    snapshot["access"] = [event.as_record() for event in trace.events]
    return snapshot


def assert_traces_agree(graph, config, make_run_app, window):
    engine, oracle = (
        _hooked_snapshot(graph, config, make_run_app, name, window)
        for name in (DEFAULT_ENGINE, ORACLE)
    )
    for key in oracle:
        assert engine[key] == oracle[key], f"hooked runs diverge on {key!r}"


@given(
    st.one_of(er_graphs(), pl_graphs()),
    configs,
    st.sampled_from(APPS),
    st.sampled_from(WINDOWS),
)
@settings(max_examples=40, deadline=None)
def test_hooks_identical_on_random_graphs(graph, config, app_name, window):
    assert_traces_agree(graph, config, lambda: make_app(app_name), window)


@given(
    st.one_of(er_graphs(), pl_graphs()),
    configs,
    st.sampled_from(APPS),
    st.sampled_from(RINGS),
)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_hooks_identical_on_short_rings(graph, config, app_name, ring):
    with mock.patch.object(sim, "_RING", ring):
        assert_traces_agree(graph, config, lambda: make_app(app_name), 16)


#: The tiny grid subset; 4-MC on p2p (~20 s hooked) at the default ring only.
SUBSET = [
    (app_name, graph_name, ring)
    for app_name, graph_name in [("3-CF", "citeseer"), ("FSM", "citeseer")]
    for ring in [sim._RING, *RINGS]
] + [("4-MC", "p2p", sim._RING)]


@pytest.mark.parametrize(("app_name", "graph_name", "ring"), SUBSET)
def test_table3_tiny_subset_hooks_identical(app_name, graph_name, ring):
    scale = "tiny"
    app = build_app(app_name, graph_name, scale)
    loader = datasets.load_labeled if app.needs_labels else datasets.load
    graph = loader(graph_name, scale)
    with mock.patch.object(sim, "_RING", ring):
        assert_traces_agree(
            graph,
            GramerConfig(),
            lambda: build_app(app_name, graph_name, scale),
            1024,
        )
