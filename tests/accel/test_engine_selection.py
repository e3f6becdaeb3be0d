"""Engine selection and validation across the factory and the backend.

These tests pin the selection contract: unknown names are rejected up
front with a message listing the valid engines, and ``"fast"`` and
``"reference"`` both select the one exact engine, with or without
observability hooks.
"""

import pytest

from repro.accel.config import GramerConfig
from repro.accel.sim import ENGINES, GramerSimulator, make_simulator
from repro.graph import erdos_renyi
from repro.obs import AccessTrace, SimInstrument
from repro.runtime.backends import GramerBackend
from repro.runtime.spec import make_jobspec


@pytest.fixture()
def graph():
    return erdos_renyi(12, 24, seed=5)


def test_engines_registry_shape():
    assert ENGINES == ("fast", "reference")


@pytest.mark.parametrize(
    ("engine", "expected_type"),
    [
        ("fast", GramerSimulator),
        ("reference", GramerSimulator),
    ],
)
def test_factory_routes_each_engine(graph, engine, expected_type):
    sim = make_simulator(graph, GramerConfig(), engine=engine)
    assert type(sim) is expected_type


def test_factory_rejects_unknown_engine_listing_valid_ones(graph):
    with pytest.raises(ValueError) as excinfo:
        make_simulator(graph, GramerConfig(), engine="warp")
    message = str(excinfo.value)
    assert "'warp'" in message
    for name in ENGINES:
        assert name in message


# The engine "reference" names is the exact engine, GramerSimulator.
@pytest.mark.parametrize("engine", ENGINES)
def test_instrument_forces_reference_engine(graph, engine):
    sim = make_simulator(
        graph, GramerConfig(), engine=engine, instrument=SimInstrument()
    )
    assert type(sim) is GramerSimulator


@pytest.mark.parametrize("engine", ENGINES)
def test_access_trace_forces_reference_engine(graph, engine):
    sim = make_simulator(
        graph, GramerConfig(), engine=engine, access_trace=AccessTrace()
    )
    assert type(sim) is GramerSimulator


# "turbo" once named an approximate engine; it must fail like any typo.
@pytest.mark.parametrize("engine", ["warp", "turbo"])
def test_backend_rejects_unknown_engine_before_running(engine):
    spec = make_jobspec(
        "gramer",
        "3-CF",
        dataset="citeseer",
        scale="tiny",
        params={"engine": engine},
    )
    with pytest.raises(ValueError) as excinfo:
        GramerBackend().run(spec)
    message = str(excinfo.value)
    assert repr(engine) in message
    for name in ENGINES:
        assert name in message


def test_backend_cache_keys_distinguish_engines():
    import json

    keys = set()
    for engine in ENGINES:
        spec = make_jobspec(
            "gramer",
            "3-CF",
            dataset="citeseer",
            scale="tiny",
            params={"engine": engine},
        )
        keys.add(json.dumps(spec.cache_key(), sort_keys=True))
    assert len(keys) == len(ENGINES)
