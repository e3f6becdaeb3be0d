"""Table III — running time of GRAMER vs Fractal vs RStream.

Eight application variants × seven graphs × three systems.  GRAMER runs in
the cycle simulator; the baselines run through their CPU/disk models.  The
proxies are orders of magnitude smaller than the paper's datasets, so the
comparison metric is the *speedup* (who wins, by what factor), reported
next to the paper's speedup for the same cell.
"""

from __future__ import annotations

from typing import Iterable

from repro.obs.log import console, get_logger
from repro.runtime.executor import Executor
from repro.runtime.spec import JobResult, JobSpec

from .harness import cell_jobspec, format_seconds, format_table
from .datasets import DATASET_ORDER
from .paper_data import TABLE3_APPS, paper_speedup

__all__ = ["run", "render", "main", "speedup_rows", "cell_specs", "by_cell"]

_log = get_logger("experiments.table3")

_SYSTEMS = ("gramer", "fractal", "rstream")


def cell_specs(
    scale: str = "small",
    apps: list[str] | None = None,
    graphs: list[str] | None = None,
) -> list[JobSpec]:
    """The Table III grid as job specs (app-major, then graph, then system)."""
    apps = apps if apps is not None else list(TABLE3_APPS)
    graphs = graphs if graphs is not None else list(DATASET_ORDER)
    return [
        cell_jobspec(backend, app, graph, scale)
        for app in apps
        for graph in graphs
        for backend in _SYSTEMS
    ]


def run(
    scale: str = "small",
    apps: list[str] | None = None,
    graphs: list[str] | None = None,
    verbose: bool = False,
    executor: Executor | None = None,
) -> list[JobResult]:
    """Run every requested cell for all three systems; return the ok ones.

    All cells are submitted through one :class:`~repro.runtime.Executor`
    (serial inline by default; pass ``executor=Executor(jobs=N)`` or set
    ``GRAMER_JOBS`` to run them on N forked claim/lease sweep workers).
    Results come back in grid order, byte-identical at any worker count.
    """
    executor = executor if executor is not None else Executor()
    specs = cell_specs(scale, apps, graphs)

    def progress(result: JobResult, index: int, total: int) -> None:
        if not verbose:
            return
        spec = result.spec
        shown = format_seconds(result.seconds) if result.ok else "FAILED"
        suffix = " [cached]" if result.cached else ""
        console(
            f"  {result.system:8s} {spec.app:5s} {spec.graph_name:9s} "
            f"{shown:>10s} (host {result.wall_seconds:.1f}s)"
            f"{suffix}"
        )

    results = executor.run(specs, progress=progress)
    failures = [r for r in results if not r.ok]
    for failure in failures:
        _log.warning("FAILED %s: %s", failure.spec.label(), failure.error)
    return [r for r in results if r.ok]


def by_cell(
    results: Iterable[JobResult],
) -> dict[tuple[str, str], dict[str, JobResult]]:
    """(app, graph) -> system name -> that cell's result."""
    table: dict[tuple[str, str], dict[str, JobResult]] = {}
    for result in results:
        key = (result.spec.app, result.spec.graph_name)
        table.setdefault(key, {})[result.system] = result
    return table


def speedup_rows(cells: list[JobResult]) -> list[dict]:
    """Per (app, graph): modeled seconds, speedups, and paper speedups."""
    rows = []
    for (app, graph), systems in sorted(by_cell(cells).items()):
        gramer = systems.get("GRAMER")
        fractal = systems.get("Fractal")
        rstream = systems.get("RStream")
        if gramer is None or gramer.seconds is None:
            continue

        def ratio(base: JobResult | None) -> float | None:
            if base is None or base.seconds is None:
                return None
            return base.seconds / gramer.seconds

        paper_f, paper_r = paper_speedup(app if app in TABLE3_APPS else "FSM", graph)
        rows.append(
            {
                "app": app,
                "graph": graph,
                "gramer_s": gramer.seconds,
                "fractal_s": fractal.seconds if fractal else None,
                "rstream_s": rstream.seconds if rstream else None,
                "speedup_vs_fractal": ratio(fractal),
                "speedup_vs_rstream": ratio(rstream),
                "paper_speedup_vs_fractal": paper_f,
                "paper_speedup_vs_rstream": paper_r,
            }
        )
    return rows


def _fmt_ratio(value: float | None) -> str:
    return f"{value:.2f}x" if value is not None else "N/A"


def render(rows: list[dict]) -> str:
    """Format :func:`speedup_rows` as Table III with paper-speedup columns."""
    table = format_table(
        [
            "App", "Graph", "GRAMER", "Fractal", "RStream",
            "vs Fractal (paper)", "vs RStream (paper)",
        ],
        [
            [
                r["app"],
                r["graph"],
                format_seconds(r["gramer_s"]),
                format_seconds(r["fractal_s"]),
                format_seconds(r["rstream_s"]),
                f"{_fmt_ratio(r['speedup_vs_fractal'])} "
                f"({_fmt_ratio(r['paper_speedup_vs_fractal'])})",
                f"{_fmt_ratio(r['speedup_vs_rstream'])} "
                f"({_fmt_ratio(r['paper_speedup_vs_rstream'])})",
            ]
            for r in rows
        ],
    )
    return "Table III — running time, GRAMER vs Fractal vs RStream\n" + table


def main(
    scale: str = "small",
    apps: list[str] | None = None,
    graphs: list[str] | None = None,
    verbose: bool = True,
    executor: Executor | None = None,
) -> str:
    """Run and render Table III."""
    cells = run(scale, apps, graphs, verbose=verbose, executor=executor)
    return render(speedup_rows(cells))


if __name__ == "__main__":
    print(main())
