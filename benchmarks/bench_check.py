"""Measure ``gramer check``: cold analysis vs warm cache-served re-check.

Runs the full static-analysis pipeline (module rules + whole-program
project pass) over ``src/repro`` twice against the same disk cache:

* **cold** — a fresh cache directory; every file is parsed once, its
  module rules run and its summary is built in the same step, and the
  project pass builds its call graph from scratch;
* **warm** — a fresh :class:`ArtifactCache` *instance* over the now
  populated directory, modeling what a new ``gramer check`` process pays
  on an unchanged tree (the pre-commit path): each file's one record
  (findings, suppressions, summary) comes off disk, only the project
  fixpoint re-runs.

Writes the measurement record to ``benchmarks/BENCH_check.json``.

Run with::

    PYTHONPATH=src python benchmarks/bench_check.py [--smoke]

Not a pytest-benchmark module on purpose: the unit here is a whole CLI
invocation over the live tree (what pre-commit pays), not a single hot
function.
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from repro.analysis import check_paths
from repro.runtime.cache import ArtifactCache

OUT_PATH = Path(__file__).parent / "BENCH_check.json"
TREE = Path(__file__).resolve().parent.parent / "src" / "repro"


def timed_check(cache_root: Path, *, jobs: int = 1) -> tuple[float, int]:
    """One full check of ``src/repro`` against a fresh cache instance."""
    cache = ArtifactCache(root=cache_root)
    start = time.perf_counter()
    findings = check_paths([TREE], cache=cache, jobs=jobs)
    return time.perf_counter() - start, len(findings)


def count_python_files() -> int:
    return sum(1 for _ in TREE.rglob("*.py"))


def measure(repeat: int) -> dict:
    with tempfile.TemporaryDirectory(prefix="gramer-bench-check-") as tmp:
        cache_root = Path(tmp)
        cold_s, cold_findings = timed_check(cache_root)

        warm_s = None
        warm_findings = cold_findings
        for _ in range(repeat):
            elapsed, warm_findings = timed_check(cache_root)
            warm_s = elapsed if warm_s is None else min(warm_s, elapsed)

    assert warm_s is not None
    return {
        "tree": str(TREE.relative_to(TREE.parent.parent)),
        "python_files": count_python_files(),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_best_of": repeat,
        "warm_speedup_x": cold_s / warm_s,
        "findings": {"cold": cold_findings, "warm": warm_findings},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3,
                        help="warm runs; best-of is recorded (default 3)")
    parser.add_argument("--smoke", action="store_true",
                        help="assert warm >= 5x faster than cold and both "
                             "runs agree on findings (CI gate)")
    parser.add_argument("--out", default=str(OUT_PATH),
                        help=f"output JSON path (default {OUT_PATH})")
    args = parser.parse_args()

    record = measure(args.repeat)
    Path(args.out).write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )

    print(f"tree: {record['tree']} ({record['python_files']} files)")
    print(f"cold check: {record['cold_s'] * 1e3:9.2f} ms")
    print(f"warm check: {record['warm_s'] * 1e3:9.2f} ms "
          f"({record['warm_speedup_x']:.1f}x faster, "
          f"best of {record['warm_best_of']})")
    print(f"findings: cold {record['findings']['cold']}, "
          f"warm {record['findings']['warm']}")
    print(f"wrote {args.out}")

    if args.smoke:
        speedup = record["warm_speedup_x"]
        assert speedup >= 5.0, (
            f"warm check only {speedup:.1f}x faster than cold; expected "
            ">= 5x — the per-file record cache is not being hit"
        )
        assert record["findings"]["cold"] == record["findings"]["warm"], (
            "cache-served findings diverge from cold analysis"
        )
        print(f"smoke ok: {speedup:.1f}x warm speedup, findings stable")
        return
    sys.exit(0)


if __name__ == "__main__":
    main()
