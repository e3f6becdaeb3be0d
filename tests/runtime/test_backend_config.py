"""Each backend declares the spec config keys it reads; make_jobspec rejects others."""

from dataclasses import fields

import pytest

from repro.accel.config import GramerConfig
from repro.baselines.cpu import CPUConfig
from repro.runtime.spec import JobSpec, make_jobspec


def _spec(backend: str, **config) -> JobSpec:
    return make_jobspec(backend, "3-CF", "citeseer", "tiny", config=config)


def test_gramer_config():
    spec = _spec("gramer", onchip_entries=64)
    # Validation leaves the spec, and so its digest, as it was.
    assert spec == JobSpec(
        "gramer", "3-CF", "citeseer", "tiny", config=(("onchip_entries", 64),)
    )
    for field in fields(GramerConfig):
        _spec("gramer", **{field.name: 1})
    with pytest.raises(ValueError, match="onchip_entry'.*'onchip_entries'"):
        _spec("gramer", onchip_entry=64)
    with pytest.raises(ValueError, match="config keys"):
        _spec("gramer", l2_bytes=1024)  # a CPUConfig field


@pytest.mark.parametrize("backend", ["fractal", "rstream"])
def test_cpu_baseline_config(backend):
    for field in fields(CPUConfig):
        _spec(backend, **{field.name: 1})
    with pytest.raises(ValueError, match="'l2_byte'.*'l2_bytes'"):
        _spec(backend, l2_byte=1024)
    with pytest.raises(ValueError, match="onchip_entries"):
        _spec(backend, onchip_entries=64)  # a GramerConfig field


def test_software_reads_no_config():
    with pytest.raises(ValueError, match=r"its config keys are \[\]"):
        _spec("software", onchip_entries=64)


def test_spec_without_config_does_no_backend_lookup():
    spec = make_jobspec("not-registered", "3-CF", "citeseer", "tiny", config={})
    assert spec.config == ()
