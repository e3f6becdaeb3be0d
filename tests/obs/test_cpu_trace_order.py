"""A traced baseline cell's event list equals the per-access oracle's.

The CPU model resolves recorded accesses in bulk, so its post-L2 observer
fires at resolve time.  The trace must still read exactly as if every
access were charged on arrival: same events, same order, with RStream's
CPU misses and disk spills interleaved level by level.
"""

import pytest

from repro.experiments.harness import cell_jobspec
from repro.obs import AccessTrace
from repro.runtime import run_spec
from tests.differential.cpu_oracle import OracleCPUMemory


def _traced(spec):
    trace = AccessTrace()
    result = run_spec(spec, use_cache=False, access_trace=trace)
    assert result.ok
    return result, trace.events


@pytest.mark.parametrize(
    "backend, app, dataset",
    [("rstream", "3-MC", "patents"), ("fractal", "3-MC", "p2p")],
)
def test_traced_cell_matches_oracle_events(monkeypatch, backend, app, dataset):
    spec = cell_jobspec(backend, app, dataset, "tiny")
    result, events = _traced(spec)
    monkeypatch.setattr(f"repro.baselines.{backend}.CPUMemory", OracleCPUMemory)
    oracle, oracle_events = _traced(spec)
    assert result.detail == oracle.detail
    assert result.seconds == oracle.seconds
    assert events == oracle_events
    assert any(event.component.startswith("cpu.") for event in events)


def test_rstream_spills_interleave_with_cpu_misses():
    spec = cell_jobspec("rstream", "3-MC", "patents", "tiny")
    _, events = _traced(spec)
    disk = [event.component == "disk" for event in events]
    switches = sum(a != b for a, b in zip(disk, disk[1:]))
    # CPU misses, then spills, then more CPU misses, then spills again.
    assert switches >= 3
