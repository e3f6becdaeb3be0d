"""The benchmark's four workloads: inputs, set-up, timed passes, checks.

A workload runs against the ``repro`` package under ``src`` (the
checkout's, or the frozen copy the reference worker uses).  A workload
object is built from the seed, makes its inputs once
(:meth:`Workload.make_inputs`, untimed), can be set up any number of times
in a fresh ``GRAMER_CACHE_DIR`` (:meth:`Workload.setup`, timed as
``setup_s``), and then runs passes of individually timed steps
(:meth:`Workload.run_pass`).  :meth:`Workload.check` compares the first
pass's results with the recorded goldens (seed 0) or across backends
(other seeds); :class:`Passes` checks every later pass against the first.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tarfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"
CORPUS_PATH = HERE / "corpus.tar.gz"

SCALE = "tiny"
BACKENDS = ("gramer", "fractal", "rstream", "software")
TABLE3_APPS = ("3-CF", "4-CF", "5-CF", "3-MC", "4-MC", "FSM")
DATASETS = ("citeseer", "p2p", "astro", "mico", "patents", "yt", "lj")

#: Generator recipes of the registered tiny proxies, frozen here so that a
#: non-zero seed regenerates each proxy's shape under another seed and a
#: change to the registry cannot change the benchmark's inputs.
TINY_RECIPES: dict[str, tuple[str, tuple, dict[str, Any], int]] = {
    "citeseer": ("erdos_renyi", (300, 450), {}, 111),
    "p2p": ("powerlaw_cluster", (400, 2, 0.05), {"max_degree": 18}, 112),
    "astro": ("powerlaw_cluster", (300, 3, 0.5), {"max_degree": 25}, 113),
    "mico": ("powerlaw_cluster", (350, 4, 0.6), {"max_degree": 30}, 114),
    "patents": ("powerlaw_cluster", (500, 3, 0.2), {"max_degree": 20}, 115),
    "yt": ("powerlaw_cluster", (600, 3, 0.1), {"max_degree": 20}, 116),
    "lj": ("powerlaw_cluster", (700, 3, 0.3), {"max_degree": 22}, 117),
}


def grid_cells(apps, graphs, skip=()) -> list[tuple[str, str, str]]:
    """(backend, app, graph) cells, app-major, minus ``skip`` (app, graph)."""
    return [
        (backend, app, graph)
        for app in apps
        for graph in graphs
        if (app, graph) not in skip
        for backend in BACKENDS
    ]


#: grid-cold: one proxy per CPU-cache regime (citeseer fits L2, p2p fits
#: the LLC, patents exceeds it); 4-MC only on citeseer.
GRID_COLD = grid_cells(
    TABLE3_APPS,
    ("citeseer", "p2p", "patents"),
    skip={("4-MC", "p2p"), ("4-MC", "patents")},
)
#: grid-warm: all six apps on the two small proxies, except 4-MC on p2p,
#: whose 4 s of compute would triple the cache pre-fill in set-up.
GRID_WARM = grid_cells(TABLE3_APPS, ("citeseer", "p2p"), skip={("4-MC", "p2p")})
#: sweep-jobs2: the CLI sweep's lists (the seed sets their order).
SWEEP_APPS = ("3-CF", "FSM")
SWEEP_JOBS = 2


def cell_label(backend: str, app: str, graph: str) -> str:
    """Cell key; equal to ``JobSpec.label()`` for registered proxies."""
    return f"{backend}:{app}@{graph}/{SCALE}"


def canonical(obj: Any) -> Any:
    """JSON-canonical form of a result payload.

    ``JobResult.fingerprint()`` cannot serve here: it raises ``TypeError``
    on software-backend results, whose ``detail["patterns"]`` is keyed by
    ``PatternCode``.  Keys are therefore turned into strings here (a
    ``PatternCode``'s repr is deterministic) and tuples into lists.
    """
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if hasattr(obj, "item") and callable(obj.item):  # numpy scalar
        return obj.item()
    return obj


def result_payload(result: Any) -> dict[str, Any]:
    """Every deterministic field of a ``JobResult`` (the fingerprint's set)."""
    return canonical(
        {
            "system": result.system,
            "ok": result.ok,
            "seconds": result.seconds,
            "energy_j": result.energy_j,
            "detail": result.detail,
            "error": result.error,
        }
    )


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def load_golden() -> dict[str, Any]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class Cell:
    key: str
    latency_s: float
    ok: bool
    payload: str  # canonical JSON of the deterministic fields


@dataclass
class Pass:
    wall_s: float
    cells: list[Cell]
    ledger: dict[str, float] = field(default_factory=dict)


def parse_label(key: str) -> tuple[str, str, str]:
    """``(backend, app, graph)`` of a :func:`cell_label`."""
    backend, rest = key.split(":", 1)
    app, graph = rest.split("@", 1)
    return backend, app, graph.rsplit("/", 1)[0]


def build_graphs(specs) -> None:
    """Graph artifacts, FSM threshold probes and ON1 ranks for ``specs``."""
    from repro.graph.store import default_graph_store
    from repro.runtime import backends

    done: set[str] = set()
    for spec in specs:
        if spec.backend != "gramer":
            continue  # the other backends read the same graphs
        digest = backends.graph_digest_for(spec)
        if digest not in done:
            done.add(digest)
            backends.cached_vertex_rank(default_graph_store().open(digest))


def reset_runtime(cache_root: Path) -> None:
    """Point the runtime's process-wide caches at a fresh ``cache_root``."""
    from repro.graph.store import reset_default_graph_store
    from repro.runtime.cache import reset_default_cache

    os.environ["GRAMER_CACHE_DIR"] = str(cache_root)
    reset_default_cache()
    reset_default_graph_store()


class Workload:
    """One workload.  A pass is a sequence of steps timed one by one.

    Timing each step on its own lets the runner interleave the reference
    program's twin step between two steps without timing it.
    """

    name = ""

    def __init__(self, seed: int, work: Path, src: Path = ROOT / "src") -> None:
        self.seed = seed
        self.work = work
        self.src = src  # the program under test; ``repro`` is imported from here

    def make_inputs(self) -> None:
        """Generate the seed's inputs (untimed, once per run)."""

    def setup(self, cache_root: Path) -> None:
        raise NotImplementedError

    def start_pass(self, index: int) -> int:
        """Prepare pass ``index`` (untimed); return its number of steps."""
        raise NotImplementedError

    def step(self, i: int) -> Any:
        """Run step ``i`` of the current pass; the caller times it."""
        raise NotImplementedError

    def finish_pass(self, index: int, timed: list[tuple[float, Any]]) -> Pass:
        """The pass's cells from its ``(seconds, output)`` steps (untimed)."""
        raise NotImplementedError

    def run_pass(
        self, index: int, between: Callable[[int, int], None] | None = None
    ) -> Pass:
        """Run pass ``index``; ``between(index, i)`` runs untimed after step i."""
        timed = []
        for i in range(self.start_pass(index)):
            start = time.perf_counter()
            output = self.step(i)
            timed.append((time.perf_counter() - start, output))
            if between is not None:
                between(index, i)
        return self.finish_pass(index, timed)

    def check(self, first: Pass) -> list[str]:
        """Problems in the first pass's results (empty = correct)."""
        return []


class Passes:
    """Timed passes folded in as they finish.

    Only the first pass keeps its result payloads; every later pass,
    traced or not, must give each cell the same result, and its payloads
    are dropped once compared, so memory stays flat however many passes
    a run makes.
    """

    def __init__(self) -> None:
        self.first: Pass | None = None
        self.expected: dict[str, str] = {}
        self.walls: list[float] = []
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, run: Pass) -> None:
        if self.first is None:
            self.first = run
            self.expected = {cell.key: cell.payload for cell in run.cells}
        else:
            for cell in run.cells:
                if self.expected.get(cell.key) != cell.payload:
                    self.problems.append(
                        f"pass {len(self.walls)}: {cell.key} differs from pass 0"
                    )
        self.walls.append(run.wall_s)
        self.latencies.extend(cell.latency_s for cell in run.cells)
        self.attempted += len(run.cells)
        self.failed += sum(1 for cell in run.cells if not cell.ok)


# -- grid-cold / grid-warm ---------------------------------------------------


class GridWorkload(Workload):
    """Table III cells through ``run_spec``, inline."""

    cells: list[tuple[str, str, str]] = []

    def make_inputs(self) -> None:
        # Seed 0 uses the registered proxies.  Other seeds regenerate each
        # proxy from its recipe and hand it over as an edge-list file; FSM
        # needs vertex labels, which an edge list cannot carry, so FSM
        # cells stay on the registered proxies.
        self.graph_files: dict[str, str] = {}
        if self.seed != 0:
            self.write_graphs()
        self.cell_specs = [
            (cell_label(b, a, g), self.spec(b, a, g)) for b, a, g in self.cells
        ]

    def write_graphs(self) -> None:
        from repro.graph import generators
        from repro.graph.io import save_edge_list

        folder = self.work / "graphs"
        folder.mkdir(parents=True, exist_ok=True)
        for graph in sorted({g for _, app, g in self.cells if app != "FSM"}):
            kind, args, kwargs, base_seed = TINY_RECIPES[graph]
            recipe_seed = (self.seed * 1_000_003 + base_seed) % (1 << 31)
            built = getattr(generators, kind)(*args, seed=recipe_seed, **kwargs)
            path = folder / f"{graph}.edges"
            save_edge_list(built, path)
            self.graph_files[graph] = str(path)

    def spec(self, backend: str, app: str, graph: str):
        from repro.runtime.spec import make_jobspec

        if graph in self.graph_files and app != "FSM":
            # Edge-list jobs name their app variant exactly; only FSM has a
            # per-dataset variant, and FSM stays on the registered proxies.
            return make_jobspec(
                backend, app, graph_path=self.graph_files[graph], scale=SCALE
            )
        return make_jobspec(backend, app, dataset=graph, scale=SCALE)

    def start_pass(self, index: int) -> int:
        self.cache = self.pass_cache(index)
        return len(self.cell_specs)

    def step(self, i: int) -> Any:
        from repro.runtime import executor

        return executor.run_spec(self.cell_specs[i][1], cache=self.cache)

    def finish_pass(self, index: int, timed: list[tuple[float, Any]]) -> Pass:
        cells = [
            Cell(key, latency, result.ok, dumps(result_payload(result)))
            for (key, _), (latency, result) in zip(self.cell_specs, timed)
        ]
        return Pass(sum(latency for latency, _ in timed), cells)

    def check(self, first: Pass) -> list[str]:
        problems = []
        results = {cell.key: cell.payload for cell in first.cells}
        golden = load_golden()["cells"]
        for key, payload in results.items():
            backend, app, graph = parse_label(key)
            if self.seed == 0 or app == "FSM":
                if dumps(golden[key]) != payload:
                    problems.append(f"{key}: result differs from golden")
            elif backend != "software":
                mine = json.loads(payload)["detail"]["embeddings"]
                sw = json.loads(results[cell_label("software", app, graph)])
                if mine != sw["detail"]["embeddings"]:
                    problems.append(
                        f"{key}: embedding counts {mine} differ from "
                        f"software {sw['detail']['embeddings']}"
                    )
        return problems


class GridCold(GridWorkload):
    """Every pass computes every cell; the job-result cache starts empty."""

    name = "grid-cold"
    cells = GRID_COLD

    def setup(self, cache_root: Path) -> None:
        reset_runtime(cache_root)
        build_graphs(spec for _, spec in self.cell_specs)

    def pass_cache(self, index: int):
        from repro.runtime.cache import ArtifactCache

        return ArtifactCache(root=self.work / f"jobs-{index}")

    def finish_pass(self, index: int, timed: list[tuple[float, Any]]) -> Pass:
        shutil.rmtree(self.work / f"jobs-{index}", ignore_errors=True)
        return super().finish_pass(index, timed)


class GridWarm(GridWorkload):
    """Every pass is answered by the job-result cache's disk tier."""

    name = "grid-warm"
    cells = GRID_WARM

    def setup(self, cache_root: Path) -> None:
        from repro.runtime import executor

        reset_runtime(cache_root)
        build_graphs(spec for _, spec in self.cell_specs)
        for _, spec in self.cell_specs:
            executor.run_spec(spec)

    def pass_cache(self, index: int):
        from repro.runtime.cache import default_cache

        cache = default_cache()
        cache.clear_memory()  # every lookup reads, verifies and unpickles
        return cache


# -- sweep-jobs2 -------------------------------------------------------------


class SweepJobs2(Workload):
    """``gramer sweep --jobs 2 --no-cache`` as a child process."""

    name = "sweep-jobs2"

    def make_inputs(self) -> None:
        # The CLI accepts registered datasets only; the seed sets the
        # order of its --apps/--datasets/--backends lists.
        rng = random.Random(self.seed)
        self.apps = list(SWEEP_APPS)
        self.datasets = list(DATASETS)
        self.backends = list(BACKENDS)
        if self.seed != 0:
            for values in (self.apps, self.datasets, self.backends):
                rng.shuffle(values)
        self.keys = {
            cell_label(b, a, g)
            for a in self.apps
            for g in self.datasets
            for b in self.backends
        }

    def setup(self, cache_root: Path) -> None:
        from repro.runtime.spec import make_jobspec

        reset_runtime(cache_root)
        self.cache_root = cache_root
        build_graphs(
            make_jobspec(b, a, dataset=g, scale=SCALE)
            for b, a, g in grid_cells(self.apps, self.datasets)
        )

    def start_pass(self, index: int) -> int:
        self.ledger_path = self.work / f"ledger-{index}.jsonl"
        return 1

    def step(self, i: int) -> Any:
        command = [
            sys.executable, "-m", "repro.cli", "sweep",
            "--apps", *self.apps,
            "--datasets", *self.datasets,
            "--backends", *self.backends,
            "--scale", SCALE,
            "--jobs", str(SWEEP_JOBS),
            "--no-cache",
            "--ledger", str(self.ledger_path),
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        env["GRAMER_CACHE_DIR"] = str(self.cache_root)
        proc = subprocess.run(
            command,
            cwd=self.work,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=150,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-2000:])
        return proc.returncode

    def finish_pass(self, index: int, timed: list[tuple[float, Any]]) -> Pass:
        [(wall, returncode)] = timed
        try:
            return self.read_ledger(self.ledger_path, wall, returncode)
        finally:
            self.ledger_path.unlink(missing_ok=True)

    def read_ledger(self, path: Path, wall: float, returncode: int) -> Pass:
        finished: dict[str, dict[str, Any]] = {}
        records = 0
        if path.exists():
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    records += 1
                    record = json.loads(line)
                    if record.get("event") == "finish":
                        finished[record["label"]] = record
        cells = []
        for key in sorted(self.keys):
            record = finished.get(key)
            ok = returncode == 0 and record is not None and record["status"] == "ok"
            payload = {
                field_: (record or {}).get(field_)
                for field_ in ("status", "seconds", "energy_j")
            }
            latency = record["wall_seconds"] if record else 0.0
            cells.append(Cell(key, latency, ok, dumps(payload)))
        cell_sum = sum(r["wall_seconds"] for r in finished.values())
        ledger = {
            "sweep_cell_sum_s": cell_sum,
            "sweep_busy_frac": cell_sum / (SWEEP_JOBS * wall),
            "sweep_overhead_s": wall - cell_sum / SWEEP_JOBS,
            "ledger_records": records,
            "retries": sum(r.get("retries", 0) for r in finished.values()),
        }
        return Pass(wall, cells, ledger)

    def check(self, first: Pass) -> list[str]:
        problems = []
        golden = load_golden()["cells"]
        for cell in first.cells:
            got = json.loads(cell.payload)
            want = golden[cell.key]
            expected = {"status": "ok", "seconds": want["seconds"], "energy_j": want["energy_j"]}
            if got != expected:
                problems.append(f"{cell.key}: ledger {got} != golden {expected}")
        return problems


# -- check-cold --------------------------------------------------------------


class CheckCold(Workload):
    """``check_paths`` over a frozen corpus with an empty analysis cache."""

    name = "check-cold"

    def setup(self, cache_root: Path) -> None:
        reset_runtime(cache_root)
        corpus = cache_root / "corpus"
        with tarfile.open(CORPUS_PATH, "r:gz") as archive:
            archive.extractall(corpus, filter="data")
        # The roots are checked as `gramer check <root>` would check them.
        # The module pass runs first, one file per step; then each root's
        # own call finds every file record in the pass's cache and adds
        # its project pass.  Short steps let the reference twin track host
        # speed, and many similar cells make steady percentiles.  The
        # corpus is frozen, so the seed changes nothing.
        fixtures = corpus / "tests" / "analysis" / "fixtures"
        roots = [corpus / "src" / "repro"] + sorted(fixtures.iterdir())
        files = [
            path
            for root in roots
            if root.is_dir()
            for path in sorted(p for p in root.rglob("*.py") if p.is_file())
        ]
        self.steps = [("file", path) for path in files] + [
            ("root", root) for root in roots
        ]
        self.corpus = corpus

    def start_pass(self, index: int) -> int:
        from repro.runtime.cache import ArtifactCache

        # A fresh analysis cache that lives in memory only: the pass
        # measures the analyzer, not one fsync per cache record, whose
        # latency on a shared virtual disk swamped the small checks.
        self.cache = ArtifactCache(
            root=self.work / "unused", use_disk=False, memory_items=1 << 16
        )
        return len(self.steps)

    def step(self, i: int) -> Any:
        from repro.analysis import core

        return core.check_paths([self.steps[i][1]], cache=self.cache)

    def finish_pass(self, index: int, timed: list[tuple[float, Any]]) -> Pass:
        cells = []
        for (kind, path), (latency, found) in zip(self.steps, timed):
            rows = sorted(
                [f.rule_id, self.relative(f.path), f.line] for f in found
            )
            key = f"{kind}:{self.relative(path)}"
            cells.append(Cell(key, latency, True, dumps(rows)))
        return Pass(sum(latency for latency, _ in timed), cells)

    def relative(self, path: Path | str) -> str:
        return Path(path).resolve().relative_to(self.corpus.resolve()).as_posix()

    def check(self, first: Pass) -> list[str]:
        problems = []
        golden = load_golden()["findings"]
        got = sorted(
            row
            for cell in first.cells
            if cell.key.startswith("root:")
            for row in json.loads(cell.payload)
        )
        if got != golden:
            problems.append(
                f"check findings differ from golden ({len(got)} vs {len(golden)})"
            )
        return problems


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (GridCold, GridWarm, SweepJobs2, CheckCold)
}
