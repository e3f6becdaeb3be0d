"""Floors of the graph store's sharing model on a ~100k-edge graph.

A warm open (a fresh :class:`GraphStore` verifying the header and array
checksums, then memory-mapping the artifact — the path every sweep
worker takes) must be at least 10x faster than the cold build
(generate + materialize), and worker processes that open the same
artifact and touch every page must each peak at a flat RSS as the
worker count grows from 1 to 4: the pages are shared through the OS
page cache, not copied per worker.
"""

from __future__ import annotations

import multiprocessing
import resource
import time

from repro.graph.generators import rmat
from repro.graph.store import GraphStore

MIN_WARM_SPEEDUP = 10.0
MAX_RSS_SPREAD = 1.5


def _touch_arrays(graph) -> int:
    """Fault every page of the graph's arrays in."""
    return int(graph.offsets.sum() + graph.neighbors.sum() + graph.labels.sum())


def _worker_peak_rss_kb(args: tuple[str, str]) -> int:
    """Open the artifact in a fresh process; return its peak RSS (KB)."""
    root, digest = args
    _touch_arrays(GraphStore(root).open(digest))
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def test_warm_open_10x_cold_build_and_flat_worker_rss(tmp_path):
    store = GraphStore(tmp_path)
    start = time.perf_counter()
    digest = store.put(rmat(14, 8, seed=1))
    cold_s = time.perf_counter() - start

    warm_s = float("inf")
    for _ in range(5):
        fresh = GraphStore(tmp_path)  # no in-process memo
        start = time.perf_counter()
        _touch_arrays(fresh.open(digest))
        warm_s = min(warm_s, time.perf_counter() - start)
    assert cold_s / warm_s >= MIN_WARM_SPEEDUP, (
        f"warm open only {cold_s / warm_s:.1f}x faster than the cold build "
        f"({warm_s * 1e3:.2f} vs {cold_s * 1e3:.2f} ms)"
    )

    peaks = []
    context = multiprocessing.get_context("spawn")
    for jobs in (1, 2, 4):
        with context.Pool(jobs) as pool:
            rows = pool.map(_worker_peak_rss_kb, [(str(tmp_path), digest)] * jobs)
        peaks.append(max(rows))
    assert max(peaks) / min(peaks) <= MAX_RSS_SPREAD, (
        f"per-worker peak RSS {peaks} KB at 1/2/4 workers; pages should "
        "be shared, not copied"
    )
