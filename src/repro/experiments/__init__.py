"""Experiment harness: dataset registry plus one module per table/figure.

Submodules load on first import, so reading :data:`EXPERIMENTS` (the CLI
does, to validate ``--only``) costs no simulator or runtime import.
"""

__all__ = ["EXPERIMENTS"]

#: Experiment name -> its module in this package, in canonical report order.
#: Each module exposes ``run`` (compute) and ``render`` (format ``run``'s data).
EXPERIMENTS = {
    "fig02": "fig02_patterns",
    "fig03": "fig03_stalls",
    "fig05": "fig05_locality",
    "fig08": "fig08_heuristic",
    "table2": "table2_resources",
    "table3": "table3_runtime",
    "fig11": "fig11_energy",
    "fig12": "fig12_lamh",
    "table4": "table4_clock",
    "fig13": "fig13_pipeline",
    "fig14": "fig14_sensitivity",
    "dfs_vs_bfs": "dfs_vs_bfs",
    "ablations": "ablations",
}
