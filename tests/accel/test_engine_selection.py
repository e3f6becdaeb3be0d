"""Engine selection and validation across the factory and the backend.

These tests pin the selection contract: unknown names are rejected up
front with a message listing the valid engines, ``"fast"`` and
``"reference"`` both select the one exact engine, observability hooks
select it regardless of the requested name, and the turbo engine never
silently degrades to it (its results are tolerance-banded, not
byte-comparable).
"""

import pytest

from repro.accel.config import GramerConfig
from repro.accel.sim import ENGINES, GramerSimulator, make_simulator
from repro.accel.turbosim import TurboGramerSimulator
from repro.graph import erdos_renyi
from repro.obs import AccessTrace, SimInstrument
from repro.runtime.backends import GramerBackend
from repro.runtime.spec import make_jobspec


@pytest.fixture()
def graph():
    return erdos_renyi(12, 24, seed=5)


def test_engines_registry_shape():
    assert ENGINES == ("fast", "reference", "turbo")


@pytest.mark.parametrize(
    ("engine", "expected_type"),
    [
        ("fast", GramerSimulator),
        ("reference", GramerSimulator),
        ("turbo", TurboGramerSimulator),
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
@pytest.mark.parametrize("engine", ["turbo", "fast"])
def test_instrument_forces_reference_engine(graph, engine):
    sim = make_simulator(
        graph, GramerConfig(), engine=engine, instrument=SimInstrument()
    )
    assert type(sim) is GramerSimulator


@pytest.mark.parametrize("engine", ["turbo", "fast"])
def test_access_trace_forces_reference_engine(graph, engine):
    sim = make_simulator(
        graph, GramerConfig(), engine=engine, access_trace=AccessTrace()
    )
    assert type(sim) is GramerSimulator


def test_turbo_constructor_rejects_instrument(graph):
    with pytest.raises(ValueError, match="instrument"):
        TurboGramerSimulator(graph, GramerConfig(), instrument=SimInstrument())


def test_backend_rejects_unknown_engine_before_running():
    spec = make_jobspec(
        "gramer",
        "3-CF",
        dataset="citeseer",
        scale="tiny",
        params={"engine": "warp"},
    )
    with pytest.raises(ValueError) as excinfo:
        GramerBackend().run(spec)
    message = str(excinfo.value)
    assert "'warp'" in message
    for name in ENGINES:
        assert name in message


def test_backend_turbo_run_matches_fast_mining_counts():
    results = {}
    for engine in ("fast", "turbo"):
        spec = make_jobspec(
            "gramer",
            "3-CF",
            dataset="citeseer",
            scale="tiny",
            params={"engine": engine},
        )
        results[engine] = GramerBackend().run(spec)
    fast, turbo = results["fast"], results["turbo"]
    assert turbo.ok and fast.ok
    assert turbo.detail["embeddings"] == fast.detail["embeddings"]
    assert turbo.detail["summary"] == fast.detail["summary"]


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
