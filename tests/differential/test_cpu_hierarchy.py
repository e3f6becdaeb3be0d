"""Record-then-resolve CPU hierarchy vs the per-access oracle.

:class:`repro.baselines.cpu.CPUMemory` records addresses and resolves
them in bulk; :class:`OracleCPUMemory` charges each access through
``SetAssociativeCache(LRUPolicy)`` levels as it happens.  Random vertex /
edge streams — with ``breakdown`` reads, ``warm()`` calls and candidate
charges mid-stream — must give equal ``CPUTimeBreakdown`` fields and an
equal post-L2 observer call sequence, on every cache geometry.
"""

from __future__ import annotations

from dataclasses import astuple, replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import cpu
from repro.baselines.cpu import CPUConfig, CPUMemory
from repro.baselines.rstream import RStreamModel
from repro.experiments.datasets import scaled_cpu_config
from repro.graph.generators import powerlaw_cluster
from repro.memory.disk import DiskModel
from repro.mining.apps import MotifCounting
from repro.obs import AccessTrace

from .cpu_oracle import OracleCPUMemory

TINY = scaled_cpu_config("tiny")  # 1-set L1, 20-set L2, 56-set L3

# The tiny preset with every L2 hit's latency hidden (stall == 0).
TINY_NO_L2_STALL = replace(TINY, l2_stall_fraction=0.0)


@st.composite
def configs(draw) -> CPUConfig:
    """Cache geometries: 1..8 ways, set counts that are not powers of two."""
    if draw(st.booleans()):
        return draw(st.sampled_from([TINY, TINY_NO_L2_STALL]))
    ways = draw(st.integers(1, 8))
    line = draw(st.sampled_from([16, 32, 64]))
    sets = st.sampled_from([1, 2, 3, 5, 7, 8, 12, 20])
    l1, l2, l3 = draw(sets), draw(sets), draw(sets)
    return CPUConfig(
        l1_bytes=l1 * ways * line,
        l2_bytes=l2 * ways * line + draw(st.integers(0, line - 1)),
        l3_bytes=l3 * ways * line,
        line_bytes=line,
        ways=ways,
        entry_bytes=draw(st.sampled_from([4, 8])),
        l2_latency=draw(st.sampled_from([1, 12])),
        l2_stall_fraction=draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])),
    )


@st.composite
def streams(draw):
    """(layout, ops): a CSR-shaped address layout and an access stream."""
    num_vertices = draw(st.integers(1, 200))
    num_slots = draw(st.integers(1, 1500))
    vertex = st.tuples(st.just("vertex"), st.integers(0, num_vertices - 1))
    edge = st.tuples(st.just("edge"), st.integers(0, num_slots - 1))
    scan = st.tuples(
        st.just("scan"), st.integers(0, num_slots - 1), st.integers(1, 40)
    )
    other = st.sampled_from([("read",), ("warm",), ("candidate",)])
    drawn = draw(
        st.lists(
            st.one_of(vertex, vertex, edge, edge, scan, other), max_size=300
        )
    )
    ops: list[tuple] = []
    for op in drawn:
        if op[0] == "scan":
            stop = min(op[1] + op[2], num_slots)
            ops.extend(("edge", index) for index in range(op[1], stop))
        else:
            ops.append(op)
    layout = SimpleNamespace(
        num_vertices=num_vertices, neighbors=range(num_slots)
    )
    return layout, ops


def _pair(layout, config: CPUConfig):
    """(fast, oracle, fast observer calls, oracle observer calls)."""
    fast, oracle = CPUMemory(layout, config), OracleCPUMemory(layout, config)
    fast_calls: list[tuple] = []
    oracle_calls: list[tuple] = []
    fast.observer = lambda *event: fast_calls.append(event)
    oracle.observer = lambda *event: oracle_calls.append(event)
    return fast, oracle, fast_calls, oracle_calls


def _apply(memory, op, num_vertices: int) -> None:
    kind = op[0]
    if kind in ("vertex", "edge"):
        memory.access(op[1] if kind == "vertex" else num_vertices + op[1])
        # The drivers' buffer-bound check point; setting the depth after
        # every access lets the bound fall anywhere in the stream.
        memory.depth = 1
    elif kind == "warm":
        memory.warm()
    elif kind == "candidate":
        memory.charge_candidate(3)


def _replay(layout, config: CPUConfig, ops) -> None:
    fast, oracle, fast_calls, oracle_calls = _pair(layout, config)
    for op in ops:
        if op[0] == "read":
            assert astuple(fast.breakdown) == astuple(oracle.breakdown)
            assert fast_calls == oracle_calls
            continue
        _apply(fast, op, layout.num_vertices)
        _apply(oracle, op, layout.num_vertices)
    assert astuple(fast.breakdown) == astuple(oracle.breakdown)
    assert fast_calls == oracle_calls
    assert fast.seconds(0.5) == oracle.seconds(0.5)


@given(configs(), streams(), st.sampled_from([1, 2, 3, 7, 64, 8192]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_random_streams_match_oracle(config, stream, bound):
    """Every buffer bound, down to resolving after each access."""
    layout, ops = stream
    with mock.patch.object(cpu, "_PENDING_LIMIT", bound):
        _replay(layout, config, ops)


@pytest.mark.parametrize("config", [TINY, TINY_NO_L2_STALL])
def test_repeat_of_a_line_across_warm_is_charged(config):
    """The line before ``warm()`` may be evicted by the sweep."""
    layout = SimpleNamespace(num_vertices=100, neighbors=range(500))
    ops = [("vertex", 0), ("warm",), ("vertex", 0), ("edge", 3), ("warm",)]
    _replay(layout, config, ops + [("edge", 3), ("read",)])


def _long_ops(seed: int, length: int, num_vertices: int, num_slots: int):
    """A stream past the buffer bound: random hops, scans, reads, warms."""
    rng = np.random.default_rng(seed)
    ops: list[tuple] = []
    while len(ops) < length:
        roll = rng.random()
        if roll < 0.35:
            ops.append(("vertex", int(rng.integers(num_vertices))))
        elif roll < 0.7:
            ops.append(("edge", int(rng.integers(num_slots))))
        elif roll < 0.9995:
            start = int(rng.integers(num_slots))
            ops.extend(
                ("edge", index)
                for index in range(start, min(start + 12, num_slots))
            )
        elif roll < 0.9998:
            ops.append(("read",))
        else:
            ops.append(("warm",))
    return ops


@given(
    st.sampled_from([TINY, TINY_NO_L2_STALL, replace(TINY, ways=3)]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=6, deadline=None, derandomize=True)
def test_streams_longer_than_the_buffer_match_oracle(config, seed):
    num_vertices, num_slots = 300, 2400
    ops = _long_ops(seed, 3 * cpu._PENDING_LIMIT, num_vertices, num_slots)
    layout = SimpleNamespace(
        num_vertices=num_vertices, neighbors=range(num_slots)
    )
    _replay(layout, config, ops)


def _mru_first(cache) -> list[list[int]]:
    """Resident tags of each oracle set, most recently used first."""
    return [
        [
            line.tag
            for line in sorted(lines, key=lambda line: -line.last_access)
            if line.valid
        ]
        for lines in cache._sets
    ]


@pytest.mark.parametrize("num_slots", [0, 3, 500, 5000])
def test_warm_matches_oracle_set_contents(num_slots):
    """After ``warm()`` every set holds the oracle's lines, in LRU order."""
    layout = SimpleNamespace(num_vertices=100, neighbors=range(num_slots))
    config = replace(TINY, ways=3)
    fast, oracle, _, _ = _pair(layout, config)
    for memory in (fast, oracle):
        for vid in range(0, 100, 7):
            memory.access(vid)
        memory.warm()
    for level in ("l1", "l2", "l3"):
        assert getattr(fast, level).sets == _mru_first(getattr(oracle, level))


# -- failed baseline runs -------------------------------------------------------

SMALL = CPUConfig(l1_bytes=512, l2_bytes=1024, l3_bytes=4096)


def _rstream_run(monkeypatch, memory_class, make_model):
    """(result, trace) of one traced RStream run on ``memory_class``."""
    monkeypatch.setattr("repro.baselines.rstream.CPUMemory", memory_class)
    graph = powerlaw_cluster(120, 3, 0.3, seed=5, max_degree=30)
    trace = AccessTrace()
    result = make_model().run(graph, MotifCounting(4), access_trace=trace)
    return result, trace


@pytest.mark.parametrize(
    "make_model",
    [
        lambda: RStreamModel(SMALL, max_frontier=100),
        lambda: RStreamModel(SMALL, disk=DiskModel(capacity_bytes=4096)),
    ],
    ids=["frontier-overflow", "out-of-disk"],
)
def test_failed_result_includes_pending_accesses(monkeypatch, make_model):
    """The 'N/A' result's breakdown is read after the error: fully resolved."""
    fast, fast_trace = _rstream_run(monkeypatch, CPUMemory, make_model)
    oracle, oracle_trace = _rstream_run(monkeypatch, OracleCPUMemory, make_model)
    assert fast.failed == oracle.failed == "N/A"
    assert fast.breakdown.accesses > 0
    assert astuple(fast.breakdown) == astuple(oracle.breakdown)
    assert fast_trace.events == oracle_trace.events
