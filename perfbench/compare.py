"""Compare benchmark result files of a parent and a change.

Usage::

    python3 perfbench/compare.py --parent P1.json [P2.json ...] \\
                                 --change C1.json [C2.json ...]

Files are grouped by workload.  With one file per side and workload the
file's own median and quartiles are used; with several, the per-run
values are pooled and summarised across runs.  Each end-to-end metric
gets a verdict judged against its bound in ``BENCHMARK.json``:

* ``regressed`` - the change's median is worse than the parent's by more
  than the bound;
* ``improved`` - every change run reads better than every parent run
  (with one file per side: the quartile ranges do not overlap), and the
  medians differ by more than the parent's quartile spread;
* ``unresolved`` - neither, and one side's quartile spread is wider than
  the bound, so "no change" cannot be told apart from noise;
* ``no-worse`` - otherwise.

Per-layer metrics have no bound; their rows show the change only.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[str]) -> dict[str, list[dict]]:
    """Result files grouped by workload."""
    grouped: dict[str, list[dict]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        grouped.setdefault(result["provenance"]["workload"], []).append(result)
    return grouped


def side(results: list[dict], metric: str) -> dict | None:
    """Median, quartiles and count of ``metric`` over one side's runs."""
    found = [r["metrics"][metric] for r in results if metric in r["metrics"]]
    if not found:
        return None
    if len(found) == 1:
        return dict(found[0], lo=found[0]["q1"], hi=found[0]["q3"])
    values = [m["value"] for m in found]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {
        "value": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "lo": min(values),
        "hi": max(values),
    }


def spread(stats: dict) -> float:
    return (stats["q3"] - stats["q1"]) / abs(stats["value"]) if stats["value"] else 0.0


def verdict(parent: dict, change: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base = abs(parent["value"]) or 1.0
    worse_by = sign * (change["value"] - parent["value"]) / base
    if worse_by > bound:
        return "regressed"
    if better == "lower":
        apart = change["hi"] < parent["lo"]
    else:
        apart = change["lo"] > parent["hi"]
    if worse_by < 0 and apart and -worse_by * base > parent["q3"] - parent["q1"]:
        return "improved"
    if max(spread(parent), spread(change)) > bound:
        return "unresolved"
    return "no-worse"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as handle:
        spec = json.load(handle)
    parents, changes = load(args.parent), load(args.change)

    header = (
        f"{'workload':12s} {'metric':26s} {'parent':>12s} {'spread':>7s} "
        f"{'change':>12s} {'spread':>7s} {'delta':>8s}  verdict"
    )
    print(header)
    print("-" * len(header))
    regressed = False
    rows = [(m, m.get("bound")) for m in spec["end_to_end"]] + [
        (m, None) for m in spec["per_layer"]
    ]
    for workload in sorted(set(parents) & set(changes)):
        for metric, bound in rows:
            p = side(parents[workload], metric["name"])
            c = side(changes[workload], metric["name"])
            if p is None or c is None:
                continue
            delta = (c["value"] - p["value"]) / p["value"] if p["value"] else 0.0
            if bound is None:
                result = "-"
            else:
                result = verdict(p, c, metric["better"], bound)
                regressed |= result == "regressed"
            print(
                f"{workload:12s} {metric['name']:26s} {p['value']:12.5g} "
                f"{spread(p):7.3f} {c['value']:12.5g} {spread(c):7.3f} "
                f"{delta:+8.3f}  {result}"
            )
    for workload in sorted(set(parents) ^ set(changes)):
        print(f"{workload}: results on one side only")
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
