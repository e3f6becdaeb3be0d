"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload grid-cold --seed 0 --seconds 20 --trace 0

``--trace 0`` sets up the workload several times (``setup_s`` is their
median) and then, for ``--seconds``, runs untraced passes, each step
followed by the same step of the frozen reference program
(``reference.py``); it reports the end-to-end metrics of
``BENCHMARK.json`` at the reference host's speed.  ``--trace 1`` sets up
once with spans installed, then alternates untraced and traced passes and
reports the per-layer metrics, including the tracing overhead.  Every
pass's results are checked; a mismatch prints ``"correct": false`` and
exits 1.  A result file with provenance and each metric's quartiles is
written under ``perfbench/results/`` (or ``--out``).

``--record-golden`` recomputes ``perfbench/golden.json`` from the
current code at seed 0 (run it only when a change to simulated results
is intended).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

from workloads import WORKLOADS, Pass, Passes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
MIN_PASSES = 2


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- statistics --------------------------------------------------------------


def summary(values: list[float]) -> dict[str, float]:
    """Median, quartiles and sample count of ``values``."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def percentile_summary(values: list[float], decile: int) -> dict[str, float]:
    """The ``decile``-th decile of pooled samples (p50 = 5, p90 = 9)."""
    cut = statistics.quantiles(values, n=10, method="inclusive")[decile - 1]
    return {"value": cut, "q1": cut, "q3": cut, "n": len(values)}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


# -- host speed --------------------------------------------------------------

#: Median host seconds of one reference pass (the frozen program, see
#: ``reference.py``) on a 2-vCPU Intel Xeon container.  Untraced time
#: metrics are reported at that host speed (README, "Host speed").
REFERENCE_PASS_S = {
    "grid-cold": 6.5,
    "grid-warm": 0.01,
    "sweep-jobs2": 5.4,
    "check-cold": 2.9,
}


class Reference:
    """The workload on the frozen program, stepped in a child process."""

    def __init__(self, name: str, seed: int, work: Path) -> None:
        work.mkdir(parents=True)
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "reference.py"), "--workload", name,
             "--seed", str(seed), "--work", str(work)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.pass_s: dict[int, float] = {}
        if self._read() != "ready":
            raise RuntimeError("reference worker failed to start")

    def _read(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError(f"reference worker exited ({self.proc.returncode})")
        return line.strip()

    def step(self, index: int, i: int) -> None:
        """Run step ``i`` of reference pass ``index`` (a ``between`` hook)."""
        self.proc.stdin.write(f"{index} {i}\n")
        self.proc.stdin.flush()
        self.pass_s[index] = self.pass_s.get(index, 0.0) + json.loads(self._read())

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def at_reference_speed(run: Pass, factor: float) -> Pass:
    """``run`` with its host times divided by the host ``factor``."""
    return Pass(
        run.wall_s / factor,
        [replace(cell, latency_s=cell.latency_s / factor) for cell in run.cells],
        run.ledger,
    )


# -- provenance --------------------------------------------------------------


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over ``src/**/*.py`` (identifies code outside a git checkout)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, passes: int, setups: int) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": passes,
        "setups": setups,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


# -- per-layer metrics -------------------------------------------------------


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(snap: dict, run) -> dict[str, float]:
    """Per-layer values of one traced pass (``snap``) and its ``run``."""
    self_s = snap["self_s"]
    calls = snap["calls"]
    count = snap["counters"]

    def s(*names: str) -> float:
        return sum(self_s.get(name, 0.0) for name in names)

    def c(name: str) -> float:
        return count.get(name, 0)

    sim_s = s("accel.sim_run", "accel.make_simulator")
    fractal_s = s("baselines.fractal")
    rstream_s = s("baselines.rstream")
    dfs_s = s("mining.run_dfs")
    lookups = calls.get("runtime.cache_lookup", 0)
    return {
        "accel.sim_s": sim_s,
        "accel.candidates": c("accel.candidates"),
        "accel.ns_per_candidate": 1e9 * ratio(sim_s, c("accel.candidates")),
        "accel.sim_cycles": c("accel.sim_cycles"),
        "baselines.fractal_s": fractal_s,
        "baselines.rstream_s": rstream_s,
        "baselines.ns_per_access": 1e9 * ratio(fractal_s + rstream_s, c("memory.cpu_accesses")),
        "memory.cpu_warm_s": s("memory.cpu_warm"),
        "memory.cpu_accesses": c("memory.cpu_accesses"),
        "memory.vertex_hit_ratio": ratio(c("memory.vertex_hits"), c("memory.vertex_accesses")),
        "memory.edge_hit_ratio": ratio(c("memory.edge_hits"), c("memory.edge_accesses")),
        "memory.dram_accesses": c("memory.dram_accesses"),
        "mining.dfs_s": dfs_s,
        "mining.candidates": c("mining.candidates"),
        "mining.embeddings": c("mining.embeddings"),
        "mining.ns_per_candidate": 1e9 * ratio(dfs_s, c("mining.candidates")),
        "graph.open_s": s("graph.open", "graph.materialize"),
        "graph.opens": calls.get("graph.open", 0),
        "locality.rank_lookup_s": snap["incl_s"].get("locality.cached_vertex_rank", 0.0),
        "runtime.cache_lookup_s": s("runtime.cache_lookup"),
        "runtime.cache_lookups": lookups,
        "runtime.cache_hit_ratio": ratio(c("runtime.cache_hits"), lookups),
        "runtime.cache_key_s": s("runtime.cache_digest"),
        "runtime.run_spec_self_s": s("runtime.run_spec"),
        "runtime.cache_store_s": s("runtime.cache_store"),
        "runtime.cache_stores": calls.get("runtime.cache_store", 0),
        "runtime.cache_bytes": c("runtime.cache_bytes"),
        "runtime.sweep_cell_sum_s": run.ledger.get("sweep_cell_sum_s", 0.0),
        "runtime.sweep_busy_frac": run.ledger.get("sweep_busy_frac", 0.0),
        "runtime.sweep_overhead_s": run.ledger.get("sweep_overhead_s", 0.0),
        "runtime.ledger_records": run.ledger.get("ledger_records", 0),
        "runtime.retries": run.ledger.get("retries", 0),
        "analysis.module_pass_s": s("analysis.check_paths"),
        "analysis.project_pass_s": s("analysis.project_build", "analysis.run_project"),
        "analysis.files": c("analysis.files"),
        "analysis.findings": c("analysis.findings"),
    }


def setup_layer_metrics(snap: dict) -> dict[str, float]:
    self_s = snap["self_s"]
    return {
        "graph.build_s": sum(v for k, v in self_s.items() if k.startswith("graph.")),
        "locality.on1_rank_s": self_s.get("locality.occurrence_numbers", 0.0)
        + self_s.get("locality.rank_permutation", 0.0),
    }


# -- the run -----------------------------------------------------------------


def fresh_cache_root(work: Path, index: int) -> Path:
    root = work / f"cache-{index}"
    root.mkdir(parents=True)
    return root


def run_untraced(workload, work: Path, seconds: float):
    # The reference worker sets up before our set-ups and idles during
    # them; afterwards it runs the twin of each of our steps right after
    # it, so no two timed regions overlap.
    reference = Reference(workload.name, workload.seed, work / "reference")
    try:
        setup_times = []
        for index in range(SETUP_REPEATS):
            root = fresh_cache_root(work, index)
            start = time.perf_counter()
            workload.setup(root)
            setup_times.append(time.perf_counter() - start)
            if index + 1 < SETUP_REPEATS:
                shutil.rmtree(root, ignore_errors=True)
        passes = Passes()
        raw_walls, factors = [], []
        deadline = time.perf_counter() + seconds
        while len(passes.walls) < MIN_PASSES or time.perf_counter() < deadline:
            index = len(passes.walls)
            run = workload.run_pass(index, between=reference.step)
            factors.append(reference.pass_s[index] / REFERENCE_PASS_S[workload.name])
            raw_walls.append(run.wall_s)
            passes.add(at_reference_speed(run, factors[-1]))
        rss = peak_rss_mb()  # before the worker is reaped into RUSAGE_CHILDREN
    finally:
        reference.close()
    run_factor = statistics.median(factors)
    metrics = {
        "wall_s": summary(passes.walls),
        "cell_p50_s": percentile_summary(passes.latencies, 5),
        "cell_p90_s": percentile_summary(passes.latencies, 9),
        "setup_s": summary([t / run_factor for t in setup_times]),
        "peak_rss_mb": summary([rss]),
    }
    host = {
        "pass_factors": factors,
        "raw_wall_s": summary(raw_walls),
        "raw_setup_s": summary(setup_times),
    }
    return passes, metrics, SETUP_REPEATS, host


def run_traced(workload, work: Path, seconds: float):
    import spans

    recorder = spans.SpanRecorder()
    with spans.installed(recorder):
        workload.setup(fresh_cache_root(work, 0))
    setup_metrics = setup_layer_metrics(recorder.snapshot())
    passes = Passes()
    traced: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        passes.add(workload.run_pass(len(passes.walls)))
        recorder.reset()
        with spans.installed(recorder):
            run = workload.run_pass(len(passes.walls))
        passes.add(run)
        traced.append(layer_metrics(recorder.snapshot(), run))
    metrics = {
        name: summary([values[name] for values in traced]) for name in traced[0]
    }
    metrics.update({name: summary([v]) for name, v in setup_metrics.items()})
    untraced_wall = statistics.median(passes.walls[0::2])
    traced_wall = statistics.median(passes.walls[1::2])
    metrics["trace.overhead_frac"] = summary([traced_wall / untraced_wall - 1.0])
    return passes, metrics, 1, None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="result file path")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no repro package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    work = HERE / ".work" / f"{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    os.environ["GRAMER_CACHE_DIR"] = str(work / "cache-unset")
    try:
        if args.record_golden:
            import golden

            golden.record(work)
            return 0
        return run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass


def run_workload(args, work: Path) -> int:
    spec = load_spec()
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, work)
    workload.make_inputs()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    runner = run_traced if args.trace else run_untraced
    passes, metrics, setups, host = runner(workload, work, args.seconds)

    problems = passes.problems + workload.check(passes.first)
    attempted, failed = passes.attempted, passes.failed
    if failed:
        problems.append(f"{failed} of {attempted} cells failed")
    error_rate = failed / attempted
    if args.trace:
        metrics["error_rate"] = summary([error_rate])

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    missing = set(units) - set(metrics)
    if missing:
        fail(f"runner produced no value for {sorted(missing)}")
    result = {
        "provenance": provenance(args, len(passes.walls), setups),
        "correct": not problems,
        "problems": problems[:50],
        "attempted": attempted,
        "failed": failed,
        "error_rate": error_rate,
        "host_speed": host,
        "metrics": {
            name: dict(metrics[name], unit=units[name]) for name in units
        },
    }
    out = Path(args.out) if args.out else (
        HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for problem in problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    line = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name]["value"], "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(line))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
