"""Fill records of the uniform baseline name the side whose miss caused them.

Fig. 12's uniform variant gives both LAMH sides one shared low-priority
cache.  Its access trace must still label each fill by the side that
missed, so ``memprofile`` can split vertex from edge traffic.
"""

from collections import Counter

from repro.accel.config import GramerConfig
from repro.accel.sim import make_simulator
from repro.graph.generators import powerlaw_cluster
from repro.mining import make_app
from repro.obs import AccessTrace


def _uniform_trace() -> AccessTrace:
    graph = powerlaw_cluster(60, 3, 0.4, seed=1)
    trace = AccessTrace()
    make_simulator(
        graph, GramerConfig(low_policy="uniform"), access_trace=trace
    ).run(make_app("3-CF"))
    return trace


def test_uniform_run_labels_fills_by_missing_side():
    trace = _uniform_trace()
    fills = Counter(e.component for e in trace.select(region="priority-cache"))
    misses = Counter(
        e.component
        for e in trace.events
        if e.component.startswith("lamh.") and e.level == "offchip"
    )
    assert fills["priority_cache.vertex"] > 0
    assert fills["priority_cache.vertex"] == misses["lamh.vertex"]
    assert fills["priority_cache.edge"] == misses["lamh.edge"]
