"""Fig. 11 — (a) energy consumption and (b) total time with preprocessing.

(a) For each graph: the min / mean / max (over applications) of the
baselines' energy normalised to GRAMER's (the paper reports
9.40×–129.72× vs Fractal and 5.79×–678.34× vs RStream).  Energies follow
the paper's method — Vivado-style per-event on-chip energy for GRAMER,
TDP × runtime for the CPUs, DRAM excluded on both sides.

(b) GRAMER's execution time plus the ON1 reordering preprocessing,
alongside the baselines (paper: preprocessing ≈ 55% of execution on tiny
graphs, < 3% on Mico).  Preprocessing time is *modeled* — the scan + sort
cost at the paper's measured rate (1.73 ms for Citeseer's 3.3k/4.7k graph
→ ≈ 30 ns per ``V·log V + 2E`` operation on the Xeon host) — because the
host-Python wall clock of this reproduction carries interpreter overhead
the paper's native preprocessing does not.  The paper used 5-CF; the proxy
5-CF workloads are too light to amortise anything, so the heavier 4-MC
carries the comparison (noted in EXPERIMENTS.md).
"""

from __future__ import annotations

import math

from repro.runtime.executor import Executor
from repro.runtime.spec import JobResult

from . import datasets
from .harness import cell_jobspec, format_table, run_jobs
from .datasets import DATASET_ORDER
from .table3_runtime import by_cell, run as run_table3

__all__ = ["run", "run_energy", "run_total_time", "render", "main"]


def run_energy(
    scale: str = "small",
    cells: list[JobResult] | None = None,
    executor: Executor | None = None,
) -> list[dict]:
    """Per graph: normalised baseline energy (min/mean/max over apps).

    Without ``cells`` (Table III's results), Table III's whole grid runs
    through ``executor``.
    """
    if cells is None:
        cells = run_table3(scale, executor=executor)
    by_graph: dict[str, dict[str, list[float]]] = {}
    for (app, graph), systems in by_cell(cells).items():
        gramer = systems.get("GRAMER")
        if gramer is None or not gramer.energy_j:
            continue
        for system in ("Fractal", "RStream"):
            cell = systems.get(system)
            if cell is None or cell.energy_j is None:
                continue
            by_graph.setdefault(graph, {}).setdefault(system, []).append(
                cell.energy_j / gramer.energy_j
            )
    rows = []
    for graph in DATASET_ORDER:
        ratios = by_graph.get(graph)
        if not ratios:
            continue
        row = {"graph": graph}
        for system, values in ratios.items():
            row[f"{system.lower()}_min"] = min(values)
            row[f"{system.lower()}_mean"] = sum(values) / len(values)
            row[f"{system.lower()}_max"] = max(values)
        rows.append(row)
    return rows


# Host-CPU preprocessing rate, calibrated on the paper's 1.73 ms for
# Citeseer (§VI-B): operations = V·log2(V) sort work + 2E scan work.
_PREPROC_SECONDS_PER_OP = 30e-9


def modeled_preprocessing_seconds(graph) -> float:
    """Modeled ON1-scoring + reordering time on the Xeon host."""
    v = graph.num_vertices
    ops = v * math.log2(max(2, v)) + 2 * len(graph.neighbors)
    return ops * _PREPROC_SECONDS_PER_OP


def run_total_time(
    scale: str = "small",
    app: str = "4-MC",
    executor: Executor | None = None,
) -> list[dict]:
    """Fig. 11b: preprocessing + execution vs baselines, per graph.

    Its cells are Table III's ``app`` cells, run through ``executor``.
    """
    systems = ("gramer", "fractal", "rstream")
    specs = {
        (graph_name, backend): cell_jobspec(backend, app, graph_name, scale)
        for graph_name in DATASET_ORDER
        for backend in systems
    }
    results = run_jobs(specs.values(), executor)
    rows = []
    for graph_name in DATASET_ORDER:
        graph = datasets.load(graph_name, scale)
        preproc_s = modeled_preprocessing_seconds(graph)
        gramer, fractal, rstream = (
            results[specs[graph_name, backend]] for backend in systems
        )
        rows.append(
            {
                "graph": graph_name,
                "gramer_exec_s": gramer.seconds,
                "gramer_preproc_s": preproc_s,
                "preproc_fraction": preproc_s / (preproc_s + gramer.seconds),
                "fractal_s": fractal.seconds,
                "rstream_s": rstream.seconds,
            }
        )
    return rows


def run(
    scale: str = "small",
    cells: list[JobResult] | None = None,
    executor: Executor | None = None,
) -> dict[str, list[dict]]:
    """Both panels: ``energy`` (from ``cells`` if given) and ``total_time``,
    their cells run through ``executor``."""
    return {
        "energy": run_energy(scale, cells=cells, executor=executor),
        "total_time": run_total_time(scale, executor=executor),
    }


def render(data: dict[str, list[dict]]) -> str:
    """Format :func:`run`'s result as both panels of Fig. 11."""
    energy_table = format_table(
        ["Graph", "Fractal (min/mean/max)", "RStream (min/mean/max)"],
        [
            [
                r["graph"],
                (
                    f"{r.get('fractal_min', 0):.1f}/"
                    f"{r.get('fractal_mean', 0):.1f}/"
                    f"{r.get('fractal_max', 0):.1f}x"
                ),
                (
                    f"{r.get('rstream_min', 0):.1f}/"
                    f"{r.get('rstream_mean', 0):.1f}/"
                    f"{r.get('rstream_max', 0):.1f}x"
                    if "rstream_min" in r
                    else "N/A"
                ),
            ]
            for r in data["energy"]
        ],
    )
    time_table = format_table(
        ["Graph", "Exec", "Preproc", "Preproc share", "Fractal", "RStream"],
        [
            [
                r["graph"],
                f"{r['gramer_exec_s']*1e3:.1f}ms",
                f"{r['gramer_preproc_s']*1e3:.2f}ms",
                f"{r['preproc_fraction']:.1%}",
                f"{(r['fractal_s'] or 0)*1e3:.1f}ms",
                f"{(r['rstream_s'] or 0)*1e3:.1f}ms" if r["rstream_s"] else "N/A",
            ]
            for r in data["total_time"]
        ],
    )
    return (
        "Fig. 11 (a) baseline energy normalised to GRAMER\n"
        + energy_table
        + "\n\nFig. 11 (b) total time including preprocessing (4-MC)\n"
        + time_table
    )


def main(scale: str = "small") -> str:
    """Run and render both panels of Fig. 11."""
    return render(run(scale))


if __name__ == "__main__":
    print(main())
