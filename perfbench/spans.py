"""Host-time spans around calls into each layer of ``src/repro``.

The recorder wraps public entry points from the outside (module
attributes and class methods), so the program itself carries no tracing
code.  A span is named ``<layer>.<entry point>``; spans nest as the calls
do, and on exit a span's duration is split into *self* time (minus the
time covered by the spans it caused) and *inclusive* time.  Spans are
aggregated per name in memory, together with the counters read at the
same boundaries.

Only the traced run installs the wrappers; the untraced runs that give
the end-to-end metrics call the unwrapped functions.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator


class SpanRecorder:
    """Aggregated self/inclusive host time and counters per span name."""

    def __init__(self) -> None:
        self._stack: list[float] = []  # child time covered, per open span
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)

    def reset(self) -> None:
        self.self_s.clear()
        self.incl_s.clear()
        self.calls.clear()
        self.counters.clear()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        self._stack.append(0.0)
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            children = self._stack.pop()
            self.self_s[name] += duration - children
            self.incl_s[name] += duration
            self.calls[name] += 1
            if self._stack:
                self._stack[-1] += duration

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def snapshot(self) -> dict[str, dict[str, float]]:
        return {
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
        }


def _wrap(rec: SpanRecorder, name: str, fn: Callable, after=None) -> Callable:
    """``fn`` inside a span; ``after(result, args)`` reads counters."""

    def wrapped(*args: Any, **kwargs: Any) -> Any:
        with rec.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(result, args)
        return result

    wrapped.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapped


@contextmanager
def installed(rec: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every layer entry point for the duration of the block."""
    import repro.analysis.core as analysis_core
    import repro.runtime.backends as backends
    import repro.runtime.executor as executor
    from repro.analysis.core import Rule
    from repro.analysis.project import ProjectAnalysis
    from repro.baselines.cpu import CPUMemory
    from repro.baselines.fractal import FractalModel
    from repro.baselines.rstream import RStreamModel
    from repro.graph.store import GraphStore
    from repro.runtime.cache import ArtifactCache

    def sim_counters(result: Any, _args: tuple) -> None:
        stats = result.stats
        rec.count("accel.candidates", stats.candidates_checked)
        rec.count("accel.sim_cycles", stats.cycles)
        rec.count("memory.vertex_hits", stats.vertex_high_hits + stats.vertex_low_hits)
        rec.count("memory.vertex_accesses", stats.vertex_accesses)
        rec.count("memory.edge_hits", stats.edge_high_hits + stats.edge_low_hits)
        rec.count("memory.edge_accesses", stats.edge_accesses)
        rec.count("memory.dram_accesses", stats.dram_accesses)

    def traced_simulator_factory(factory: Callable) -> Callable:
        def make_simulator(*args: Any, **kwargs: Any) -> Any:
            with rec.span("accel.make_simulator"):
                sim = factory(*args, **kwargs)
            sim.run = _wrap(rec, "accel.sim_run", sim.run, sim_counters)
            return sim

        return make_simulator

    def dfs_counters(_result: Any, args: tuple) -> None:
        app = args[1]
        rec.count("mining.candidates", app.candidates_checked)
        rec.count("mining.embeddings", sum(app.embeddings_by_size.values()))

    def baseline_counters(result: Any, _args: tuple) -> None:
        rec.count("memory.cpu_accesses", result.breakdown.accesses)

    def lookup_counters(result: Any, _args: tuple) -> None:
        rec.count("runtime.cache_hits", 1 if result[0] else 0)

    def store_counters(_result: Any, args: tuple) -> None:
        cache, kind, key = args[0], args[1], args[2]
        if cache.use_disk:
            path = cache.entry_path(kind, key)
            if path.exists():
                rec.count("runtime.cache_bytes", path.stat().st_size)

    def check_counters(result: Any, args: tuple) -> None:
        rec.count("analysis.files", len(list(analysis_core.iter_python_files(args[0]))))
        rec.count("analysis.findings", len(result))

    def traced_run_project(fn: Callable) -> Callable:
        def run_project(self: Any, project: Any) -> list:
            # check_paths drains the generator at once, so a list is
            # equivalent to the original iterator.
            with rec.span("analysis.run_project"):
                return list(fn(self, project))

        return run_project

    def traced_classmethod(name: str) -> Callable:
        return lambda method: classmethod(_wrap(rec, name, method.__func__))

    def span(name: str, after: Callable | None = None) -> Callable:
        return lambda fn: _wrap(rec, name, fn, after)

    targets: list[tuple[Any, str, Callable[[Any], Any]]] = [
        (backends, "make_simulator", traced_simulator_factory),
        (backends, "run_dfs", span("mining.run_dfs", dfs_counters)),
        (backends, "occurrence_numbers", span("locality.occurrence_numbers")),
        (backends, "rank_permutation", span("locality.rank_permutation")),
        (backends, "cached_vertex_rank", span("locality.cached_vertex_rank")),
        (executor, "run_spec", span("runtime.run_spec")),
        (FractalModel, "run", span("baselines.fractal", baseline_counters)),
        (RStreamModel, "run", span("baselines.rstream", baseline_counters)),
        (CPUMemory, "warm", span("memory.cpu_warm")),
        (ArtifactCache, "lookup", span("runtime.cache_lookup", lookup_counters)),
        (ArtifactCache, "store", span("runtime.cache_store", store_counters)),
        (ArtifactCache, "digest", span("runtime.cache_digest")),
        (GraphStore, "open", span("graph.open")),
        (GraphStore, "materialize", span("graph.materialize")),
        (analysis_core, "check_paths", span("analysis.check_paths", check_counters)),
        (ProjectAnalysis, "build", traced_classmethod("analysis.project_build")),
        (Rule, "run_project", traced_run_project),
    ]
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner, attr, make in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
