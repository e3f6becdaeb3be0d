"""Measure the graph store: cold build vs warm mmap open, RSS, hashing.

Builds a ~100k-edge synthetic R-MAT graph once (cold: generate +
materialize), then measures

* **warm open** — a fresh :class:`GraphStore` instance opening the
  artifact from disk (header + checksum verification + ``np.memmap``),
  the path every executor sweep worker takes;
* **per-worker peak RSS** — worker processes opening the same artifact at
  ``--jobs`` 1/2/4 and touching every array; pages are shared through the
  OS page cache, so per-worker peaks stay flat as the pool widens;
* **per-job hash overhead** — the old per-job full-array SHA-256 versus
  the memoized store digest (:meth:`CSRGraph.content_digest`), i.e. what
  every job used to pay before signatures were memoized.

Writes the measurement record to ``benchmarks/BENCH_graphstore.json``.

Run with::

    PYTHONPATH=src python benchmarks/bench_graphstore.py [--scale N] [--smoke]

``--smoke`` (CI) asserts warm open is >= 10x faster than cold build and
that per-worker peak RSS stays flat (max <= 1.5x min) as jobs grow.

Not a pytest-benchmark module on purpose: the unit here is the artifact
lifecycle the sweep runtime pays, not a single hot function.
"""

import argparse
import hashlib
import json
import multiprocessing
import resource
import sys
import tempfile
import time
from pathlib import Path

from repro.graph.generators import rmat
from repro.graph.store import GraphStore

OUT_PATH = Path(__file__).parent / "BENCH_graphstore.json"


def _touch_arrays(graph) -> int:
    """Fault every page of the graph's arrays in; return a checksum-ish."""
    return int(graph.offsets.sum() + graph.neighbors.sum() + graph.labels.sum())


def _worker_rss(args: tuple[str, str]) -> tuple[int, float]:
    """Open the artifact in a worker; report peak RSS (KB) and open time."""
    root, digest = args
    start = time.perf_counter()
    graph = GraphStore(root).open(digest)
    _touch_arrays(graph)
    elapsed = time.perf_counter() - start
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, elapsed


def measure(scale: int, root: Path) -> dict:
    store = GraphStore(root)

    start = time.perf_counter()
    graph = rmat(scale, 8, seed=1)
    generate_s = time.perf_counter() - start
    start = time.perf_counter()
    digest = store.put(graph)
    materialize_s = time.perf_counter() - start
    cold_s = generate_s + materialize_s

    # Warm: a fresh store instance per open (no in-process memo), the
    # executor-worker path: header verify + per-array checksums + mmap.
    warm_samples = []
    for _ in range(5):
        fresh = GraphStore(root)
        start = time.perf_counter()
        reopened = fresh.open(digest)
        _touch_arrays(reopened)
        warm_samples.append(time.perf_counter() - start)
    warm_s = min(warm_samples)

    # Per-job hash overhead: full re-hash (the old _graph_signature) vs
    # the memoized digest a store-opened graph carries.
    start = time.perf_counter()
    hasher = hashlib.sha256()
    hasher.update(reopened.offsets.tobytes())
    hasher.update(reopened.neighbors.tobytes())
    hasher.update(reopened.labels.tobytes())
    rehash_s = time.perf_counter() - start
    assert hasher.hexdigest() == digest
    start = time.perf_counter()
    for _ in range(100):
        assert reopened.content_digest() == digest
    memoized_s = (time.perf_counter() - start) / 100

    rss_by_jobs = {}
    for jobs in (1, 2, 4):
        with multiprocessing.get_context("spawn").Pool(jobs) as pool:
            rows = pool.map(_worker_rss, [(str(root), digest)] * jobs)
        rss_by_jobs[str(jobs)] = {
            "peak_rss_kb_per_worker": [rss for rss, _ in rows],
            "max_worker_open_s": max(open_s for _, open_s in rows),
        }

    return {
        "graph": {
            "generator": f"rmat({scale}, 8, seed=1)",
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "artifact_bytes": store.artifact_path(digest).stat().st_size,
            "digest": digest,
        },
        "cold_build_s": cold_s,
        "cold_generate_s": generate_s,
        "cold_materialize_s": materialize_s,
        "warm_open_s": warm_s,
        "warm_speedup_x": cold_s / warm_s,
        "hash_overhead": {
            "full_rehash_s": rehash_s,
            "memoized_digest_s": memoized_s,
            "per_job_delta_s": rehash_s - memoized_s,
        },
        "rss_by_jobs": rss_by_jobs,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, default=14,
                        help="rmat scale; 2**scale vertices, "
                             "~8*2**scale directed samples (default 14, "
                             "~110k edges after dedup)")
    parser.add_argument("--smoke", action="store_true",
                        help="assert warm open >= 10x faster than cold "
                             "build and flat per-worker RSS (CI gate)")
    parser.add_argument("--out", default=str(OUT_PATH),
                        help=f"output JSON path (default {OUT_PATH})")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="gramer-bench-store-") as tmp:
        record = measure(args.scale, Path(tmp))
    record["scale_arg"] = args.scale
    Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    g = record["graph"]
    print(f"graph: |V|={g['num_vertices']:,} |E|={g['num_edges']:,} "
          f"({g['artifact_bytes']:,} bytes)")
    print(f"cold build: {record['cold_build_s'] * 1e3:9.2f} ms "
          f"(generate {record['cold_generate_s'] * 1e3:.2f} + "
          f"materialize {record['cold_materialize_s'] * 1e3:.2f})")
    print(f"warm open:  {record['warm_open_s'] * 1e3:9.2f} ms "
          f"({record['warm_speedup_x']:.1f}x faster)")
    h = record["hash_overhead"]
    print(f"hash/job:   full {h['full_rehash_s'] * 1e3:.3f} ms vs memoized "
          f"{h['memoized_digest_s'] * 1e6:.2f} us "
          f"(delta {h['per_job_delta_s'] * 1e3:.3f} ms/job)")
    peaks = []
    for jobs, row in sorted(record["rss_by_jobs"].items(), key=lambda kv: int(kv[0])):
        worst = max(row["peak_rss_kb_per_worker"])
        peaks.append(worst)
        print(f"jobs={jobs}: peak RSS/worker {worst:,} KB")
    print(f"wrote {args.out}")

    if args.smoke:
        speedup = record["warm_speedup_x"]
        assert speedup >= 10.0, (
            f"warm open only {speedup:.1f}x faster than cold build; "
            "expected >= 10x"
        )
        flatness = max(peaks) / min(peaks)
        assert flatness <= 1.5, (
            f"per-worker peak RSS grew {flatness:.2f}x across jobs 1->4; "
            "pages should be shared, not copied"
        )
        print(f"smoke ok: {speedup:.1f}x warm speedup, "
              f"RSS flatness {flatness:.2f}x")
        return
    sys.exit(0)


if __name__ == "__main__":
    main()
