"""Each backend declares the spec params it reads; make_jobspec rejects others."""

from dataclasses import fields

import pytest

from repro.accel.energy import EnergyParams
from repro.runtime.spec import JobSpec, make_jobspec


def _spec(backend: str, **params) -> JobSpec:
    return make_jobspec(backend, "3-CF", "citeseer", "tiny", params=params)


def test_gramer_params():
    spec = _spec("gramer", use_on1_ranks=False)
    # Validation leaves the spec, and so its digest, as it was.
    assert spec == JobSpec(
        "gramer", "3-CF", "citeseer", "tiny", params=(("use_on1_ranks", False),)
    )
    for field in fields(EnergyParams):
        _spec("gramer", **{f"energy_{field.name}": 1.0})
    with pytest.raises(ValueError, match="use_on1_rank'.*'use_on1_ranks'"):
        _spec("gramer", use_on1_rank=False)
    with pytest.raises(ValueError, match="energy_static_w"):
        _spec("gramer", energy_static=1.0)


def test_fractal_params():
    _spec("fractal", task_overhead_s=1e-3)
    with pytest.raises(ValueError, match="task_overhead_s"):
        _spec("fractal", max_frontier=10)


def test_rstream_params():
    _spec("rstream", startup_overhead_s=1e-3, max_frontier=10)
    with pytest.raises(ValueError, match="max_frontier.*startup_overhead_s"):
        _spec("rstream", task_overhead_s=1e-3)


def test_software_reads_no_params():
    with pytest.raises(ValueError, match=r"its params are \[\]"):
        _spec("software", use_on1_ranks=False)


def test_spec_without_params_does_no_backend_lookup():
    spec = make_jobspec("not-registered", "3-CF", "citeseer", "tiny", params={})
    assert spec.params == ()
