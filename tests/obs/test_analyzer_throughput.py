"""Throughput floor of the memprofile analyzer.

``analyze_trace`` is the post-processing half of ``gramer memprofile``:
taxonomy classification, Fenwick-tree Mattson stack distances and
spatial-utilization byte unions, per region.  It must analyze at least
50k events/s on a deterministic 30k-event trace shaped like a real mixed
run (a dense sequential region, a strided region and a scattered
pointer-chase region), best of three; a slower analyzer means the
O(n log n) reuse engine has regressed.
"""

from __future__ import annotations

import time

from repro.obs.access import AccessTrace
from repro.obs.locality_report import analyze_trace

EVENTS = 30_000
FLOOR_EVENTS_PER_S = 50_000.0


def synthesize_trace(events: int) -> AccessTrace:
    """A deterministic trace mixing the three traffic classes."""
    trace = AccessTrace(meta={"backend": "synthetic", "app": "bench"})
    third = events // 3
    # Dense sequential adjacency stream (row hits).
    for i in range(third):
        trace.record("lamh.edge", "adjacency", i * 8, 8, "r", "offchip", i)
    # Constant large stride over vertex records.
    for i in range(third):
        trace.record(
            "lamh.vertex", "on1-rank", i * 4096, 8, "r", "offchip", i
        )
    # Scattered pointer chase with heavy reuse (LCG, fixed seed).
    state = 0xDEADBEEF
    for i in range(events - 2 * third):
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        address = (state >> 16) % (1 << 20)
        trace.record(
            "priority_cache.edge",
            "priority-cache",
            address,
            8,
            "w",
            "low",
            i,
        )
    return trace


def test_analyzer_at_least_50k_events_per_second():
    trace = synthesize_trace(EVENTS)
    best_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        payload = analyze_trace(trace)
        best_s = min(best_s, time.perf_counter() - start)
    assert len(trace) == EVENTS
    assert len(payload["regions"]) == 3
    events_per_s = len(trace) / best_s
    assert events_per_s >= FLOOR_EVENTS_PER_S, (
        f"analyzer at {events_per_s:,.0f} events/s; expected "
        f">= {FLOOR_EVENTS_PER_S:,.0f} — the O(n log n) reuse engine has "
        "regressed"
    )
