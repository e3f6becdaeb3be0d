"""Frequent subgraph mining on a labeled graph.

Labels a synthetic social-network-like graph with four vertex types, mines
the 3-vertex labeled patterns above a support threshold (the paper's FSM
workload), and shows how the anti-monotone aggregate filter prunes the
search.

Run with::

    python examples/frequent_patterns.py [--tiny]
"""

import argparse

from repro.graph import powerlaw_cluster, random_labels
from repro.mining import FrequentSubgraphMining, run_dfs
from repro.mining.patterns import canonical_code, pattern_name


LABEL_NAMES = {0: "user", 1: "page", 2: "group", 3: "event"}


def describe(code) -> str:
    # Re-canonicalise the shape without labels so it gets its common name
    # (the labeled canonical form permutes vertices by label first).
    shape = pattern_name(canonical_code(code.edges(), code.size))
    labels = "-".join(LABEL_NAMES[l] for l in code.labels)
    return f"{shape} [{labels}]"


def main(tiny: bool = False) -> None:
    scale = 10 if tiny else 1
    graph = random_labels(
        powerlaw_cluster(3_000 // scale, 3, 0.5, seed=11, max_degree=60),
        num_labels=4,
        seed=5,
    )
    print(
        f"graph: {graph.num_vertices} vertices, {graph.num_edges} edges, "
        f"4 labels"
    )

    for threshold in (50 // scale, 200 // scale, 800 // scale):
        app = run_dfs(graph, FrequentSubgraphMining(threshold, max_vertices=3))
        frequent = app.frequent_patterns()
        print(
            f"\nthreshold {threshold}: {len(frequent)} frequent 3-vertex "
            f"patterns (checked {app.candidates_checked:,} candidates)"
        )
        top = sorted(frequent.items(), key=lambda kv: -kv[1])[:8]
        for code, support in top:
            print(f"  {describe(code):45s} support {support:>7,}")

    # Anti-monotonicity in action: raising the threshold prunes the level-2
    # extension frontier, so fewer candidates are even generated.
    lo, hi = max(2, 10 // scale), 5_000 // scale
    low = run_dfs(graph, FrequentSubgraphMining(lo, max_vertices=3))
    high = run_dfs(graph, FrequentSubgraphMining(hi, max_vertices=3))
    print(
        f"\naggregate-filter pruning: {low.candidates_checked:,} candidates "
        f"at threshold {lo} vs {high.candidates_checked:,} at threshold {hi}"
    )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the graph (used by the smoke tests)")
    main(tiny=parser.parse_args().tiny)
