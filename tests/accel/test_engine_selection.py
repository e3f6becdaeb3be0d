"""Construction of the one exact engine through ``make_simulator``.

The reproduction has one exact engine, ``GramerSimulator``. These tests
pin that ``make_simulator`` builds it with and without observability
hooks, and that the retired engine names ``"fast"`` and ``"reference"``
are not accepted in any form: the factory has no ``engine`` parameter.
"""

import pytest

from repro.accel.config import GramerConfig
from repro.accel.sim import GramerSimulator, make_simulator
from repro.graph import erdos_renyi
from repro.obs import AccessTrace, SimInstrument

RETIRED_ENGINE_NAMES = ("fast", "reference")


@pytest.fixture()
def graph():
    return erdos_renyi(12, 24, seed=5)


def _assert_name_rejected(graph, engine, **hooks):
    with pytest.raises(TypeError, match="engine"):
        make_simulator(graph, GramerConfig(), engine=engine, **hooks)


@pytest.mark.parametrize(
    ("engine", "expected_type"),
    [
        ("fast", GramerSimulator),
        ("reference", GramerSimulator),
    ],
)
def test_factory_routes_each_engine(graph, engine, expected_type):
    sim = make_simulator(graph, GramerConfig())
    assert type(sim) is expected_type
    assert sim.instrument is None and sim.access_trace is None
    _assert_name_rejected(graph, engine)


@pytest.mark.parametrize("engine", RETIRED_ENGINE_NAMES)
def test_instrument_forces_reference_engine(graph, engine):
    instrument = SimInstrument()
    sim = make_simulator(graph, GramerConfig(), instrument=instrument)
    assert type(sim) is GramerSimulator and sim.instrument is instrument
    _assert_name_rejected(graph, engine, instrument=SimInstrument())


@pytest.mark.parametrize("engine", RETIRED_ENGINE_NAMES)
def test_access_trace_forces_reference_engine(graph, engine):
    trace = AccessTrace()
    sim = make_simulator(graph, GramerConfig(), access_trace=trace)
    assert type(sim) is GramerSimulator and sim.access_trace is trace
    _assert_name_rejected(graph, engine, access_trace=AccessTrace())
