"""Fig. 8 — ON_k heuristic: accuracy vs hop count, and computation cost.

(a) Accuracy: how much of the observed top-5% vertex set of each MC
iteration the ON_k prediction covers, for k = 0..3 (paper: 1-hop stays
above ~80% from iteration 2 on; 0-hop is noticeably worse).
(b) Overheads: wall-clock of the ON_k computation normalised to the mining
run (paper: up to 8500× at k = 3 — deep hops blow up).
"""

from __future__ import annotations

import time

from repro.locality.analysis import heuristic_accuracy
from repro.locality.trace import IterationTrace
from repro.locality.occurrence import timed_occurrence_numbers
from repro.mining.apps import MotifCounting
from repro.mining.engine import run_dfs

from . import datasets
from .harness import format_table

__all__ = ["run", "render", "main"]


def run(
    scale: str = "small",
    graph_name: str = "p2p",
    max_size: int = 4,
    hops: tuple[int, ...] = (0, 1, 2, 3),
) -> dict:
    """Accuracy per (hops, iteration) and normalised ON-computation cost."""
    graph = datasets.load(graph_name, scale)
    trace = IterationTrace(graph.num_vertices)
    start = time.perf_counter()
    run_dfs(graph, MotifCounting(max_size), mem=trace)
    mining_seconds = time.perf_counter() - start

    accuracy: dict[int, dict[int, float]] = {}
    overheads: dict[int, float] = {}
    for k in hops:
        timing = timed_occurrence_numbers(graph, k)
        overheads[k] = timing.seconds / mining_seconds
        accuracy[k] = heuristic_accuracy(graph, trace, hops=k)
    return {
        "graph": graph_name,
        "mining_seconds": mining_seconds,
        "accuracy": accuracy,
        "overheads": overheads,
    }


def render(data: dict) -> str:
    """Format :func:`run`'s result as both panels of Fig. 8."""
    iterations = sorted(next(iter(data["accuracy"].values())))
    acc_table = format_table(
        ["ON hops"] + [f"iter {i}" for i in iterations],
        [
            [f"{k}-hop"]
            + [f"{data['accuracy'][k].get(i, 0.0):.2f}" for i in iterations]
            for k in sorted(data["accuracy"])
        ],
    )
    cost_table = format_table(
        ["ON hops", "normalised overhead"],
        [
            [f"{k}-hop", f"{v:.2e}"]
            for k, v in sorted(data["overheads"].items())
        ],
    )
    return (
        "Fig. 8 (a) ON_k accuracy vs observed top-5% "
        f"(MC on {data['graph']})\n{acc_table}\n\n"
        f"Fig. 8 (b) ON-computation overhead / mining time\n{cost_table}"
    )


def main(scale: str = "small") -> str:
    """Run and render both panels of Fig. 8."""
    return render(run(scale))


if __name__ == "__main__":
    print(main())
