"""Differential verification of the exact engine's calendar event queue.

:mod:`repro.accel.sim` pops events from a ring of ``_RING`` FIFO
buckets indexed by cycle, and parks events past the ring's window in a
side table until their cycle enters it.  At the default ring (512 cycles)
only ``test_engine_equivalence.py``'s 700-cycle DRAM latency reaches that
side table, so this module shrinks the ring instead: at ``_RING = 1``
every push to a later cycle crosses the window edge, and at 2 and 8 the
edge falls inside the issue, hit and DRAM latencies.  ``run()`` reads
``_RING`` at call time, so patching the module constant is enough.
"""

from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import sim
from repro.accel.config import GramerConfig
from repro.graph.csr import CSRGraph

from .test_engine_equivalence import (
    APPS,
    ORACLE,
    _grid_cell,
    _snapshot,
    assert_engines_agree,
    configs,
    er_graphs,
    pl_graphs,
)

RINGS = [1, 2, 8]

#: Zero scratchpad or hit latency lets a slot's next event fall on the
#: cycle being popped, the one case where a push lands in the live bucket.
zero_latency_configs = st.builds(
    replace,
    configs,
    spm_latency=st.sampled_from([0, 1]),
    cache_hit_latency=st.sampled_from([0, 2]),
)


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize(
    ("app_name", "graph_name"),
    [("3-CF", "citeseer"), ("4-MC", "p2p"), ("FSM", "citeseer")],
)
def test_table3_tiny_subset_on_short_rings(ring, app_name, graph_name):
    with mock.patch.object(sim, "_RING", ring):
        _grid_cell(app_name, graph_name)


@given(
    st.one_of(er_graphs(), pl_graphs()),
    zero_latency_configs,
    st.sampled_from(APPS),
    st.sampled_from(RINGS),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_short_rings_bit_identical(graph, config, app_name, ring):
    with mock.patch.object(sim, "_RING", ring):
        assert_engines_agree(graph, config, app_name)


def test_more_slots_than_a_16_bit_id():
    """A machine whose slot ids need more than 16 bits runs like any other."""
    # The circulant C10(1, 2): ten triangles (u, u + 1, u + 2).
    edges = [(u, (u + k) % 10) for u in range(10) for k in (1, 2)]
    graph = CSRGraph(10, edges)
    config = GramerConfig(num_pus=2, slots_per_pu=40000, work_stealing=False)
    assert config.max_inflight_embeddings > 0xFFFF
    fast = _snapshot(graph, config, "3-CF", "fast")
    assert "error" not in fast
    assert fast == _snapshot(graph, config, "3-CF", ORACLE)
