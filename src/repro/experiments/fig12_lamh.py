"""Fig. 12 — effectiveness of the locality-aware memory hierarchy.

On P2P with only 10% of the graph data on chip, three designs are compared
across seven application variants:

* **Uniform LRU** — one undifferentiated 4-way LRU cache,
* **Static + LRU** — LAMH's high/low split, LRU in the low half,
* **LAMH** — the full design with the locality-preserved policy (Eq. 2).

Reported per variant: vertex/edge on-chip hit ratios (a) and performance
normalised to Uniform LRU (b).  The paper sees +13–37pp vertex hit ratio
for Static+LRU over Uniform (1.60–2.95× speedup) and a further +1–6pp /
1.06–1.39× for LAMH.
"""

from __future__ import annotations

from repro.runtime.executor import Executor

from .harness import format_table, gramer_spec, onchip_entries, run_cells

__all__ = ["run", "render", "main", "FIG12_APPS", "FIG12_VARIANTS"]

FIG12_APPS = ["3-CF", "4-CF", "5-CF", "3-MC", "4-MC", "FSM"]
FIG12_VARIANTS = [
    ("Uniform LRU", "uniform"),
    ("Static + LRU", "lru"),
    ("LAMH", "locality"),
]


def run(
    scale: str = "small",
    graph_name: str = "p2p",
    memory_fraction: float = 0.10,
    apps: list[str] | None = None,
    executor: Executor | None = None,
) -> list[dict]:
    """One row per (app, variant) with hit ratios and cycles."""
    apps = apps if apps is not None else list(FIG12_APPS)
    total_entries = onchip_entries(graph_name, scale, memory_fraction)
    cells = run_cells(
        {
            (app_name, label): gramer_spec(
                app_name,
                graph_name,
                scale,
                onchip_entries=total_entries,
                low_policy=policy,
            )
            for app_name in apps
            for label, policy in FIG12_VARIANTS
        },
        executor,
    )
    rows = [
        {
            "app": app_name,
            "variant": label,
            "vertex_hit": detail["vertex_hit_ratio"],
            "edge_hit": detail["edge_hit_ratio"],
            "cycles": detail["cycles"],
        }
        for (app_name, label), detail in cells.items()
    ]
    # Normalise performance to Uniform LRU per app.
    baseline = {
        r["app"]: r["cycles"] for r in rows if r["variant"] == "Uniform LRU"
    }
    for r in rows:
        r["normalized_performance"] = baseline[r["app"]] / r["cycles"]
    return rows


def render(rows: list[dict]) -> str:
    """Format :func:`run`'s rows as both panels of Fig. 12."""
    hit_table = format_table(
        ["App", "Variant", "Vertex hit", "Edge hit", "Perf vs Uniform"],
        [
            [
                r["app"],
                r["variant"],
                f"{r['vertex_hit']:.3f}",
                f"{r['edge_hit']:.3f}",
                f"{r['normalized_performance']:.2f}x",
            ]
            for r in rows
        ],
    )
    return (
        "Fig. 12 — LAMH vs Static+LRU vs Uniform LRU "
        "(P2P proxy, 10% on-chip memory)\n" + hit_table
    )


def main(scale: str = "small") -> str:
    """Run and render both panels of Fig. 12."""
    return render(run(scale))


if __name__ == "__main__":
    print(main())
