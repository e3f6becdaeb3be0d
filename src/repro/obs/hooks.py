"""SimInstrument — the simulator-facing facade over tracer + timeline.

:class:`~repro.accel.sim.GramerSimulator` accepts an optional instrument
and calls its hooks from the event loop (root dispatch, extension steps,
DRAM fetches, steal waits, timeline window closes) — each hook is purely
observational: it reads simulator state, never writes it, so a traced run
produces bit-identical ``SimStats`` to an untraced one (asserted by
tests).

Time base: the hooks receive simulated *cycles* and forward them to the
tracer as microseconds one-for-one (see ``repro.obs.tracer``).  Track
layout: PU ``p`` renders as process ``SIM_PID_BASE + p`` with one thread
per slot; windowed counters render as process ``PID_TIMELINE``.

The instrument also aggregates what per-event traces cannot show
directly: steal-wait latencies (first failed attempt → successful steal,
per slot) and the closed timeline windows, both of which feed the
``gramer profile`` report and the optional metrics registry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Protocol

from .access import ACCESS_ENTRY_BYTES, AccessTrace
from .metrics import MetricsRegistry
from .timeline import TimelineSampler, TimelineWindow
from .tracer import (
    CATEGORY_EXECUTOR,
    CATEGORY_MEMORY,
    CATEGORY_PU,
    CATEGORY_STEAL,
    PID_EXECUTOR,
    PID_TIMELINE,
    SIM_PID_BASE,
    Tracer,
)

if TYPE_CHECKING:
    from repro.memory.hierarchy import LAMHReport

__all__ = [
    "SimInstrument",
    "attach_cpu_observer",
    "lamh_access_emitters",
    "ancestor_push_emitter",
    "disk_spill_emitter",
    "emit_job_event",
    "emit_job_retry",
]

_KIND_NAMES = ("vertex", "edge")


class _StatsLike(Protocol):
    cycles: int

    def as_dict(self) -> dict[str, object]: ...


class SimInstrument:
    """Observational hooks the simulator calls when tracing is enabled."""

    def __init__(
        self,
        tracer: Tracer | None = None,
        window_cycles: int = 1024,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.registry = registry
        self.sampler = TimelineSampler(window_cycles)
        self.steal_latencies: list[int] = []
        # The run's end-of-run stats and LAMH counts report, as handed to
        # :meth:`finish_run` (``None`` until then).
        self.stats: _StatsLike | None = None
        self.hierarchy: "LAMHReport | None" = None
        # (pu, slot) -> (first failed attempt cycle, attempt count) for the
        # steal-wait spell currently in progress.
        self._steal_wait: dict[tuple[int, int], tuple[int, int]] = {}
        # (pu, slot) -> (start cycle, stack depth) of the step in flight.
        self._step: dict[tuple[int, int], tuple[int, int]] = {}

    # -- run lifecycle ------------------------------------------------------

    def begin_run(self, num_pus: int, stats: _StatsLike) -> None:
        """Name the viewer tracks and take the opening timeline snapshot."""
        tracer = self.tracer
        tracer.metadata(PID_TIMELINE, 0, "process_name", "timeline")
        for p in range(num_pus):
            tracer.metadata(SIM_PID_BASE + p, 0, "process_name", f"PU {p}")
        self.sampler.begin(stats)

    def advance(self, now: int, stats: _StatsLike, active_slots: int) -> None:
        """Close the timeline windows the event loop's clock has passed.

        The loop calls this once ``now`` reaches
        ``self.sampler.next_boundary``; ``stats`` holds the counters so
        far and ``active_slots`` the busy slots across all PUs.
        """
        for window in self.sampler.advance(now, stats, active_slots):
            self._emit_window(window)

    def finish_run(
        self,
        stats: _StatsLike,
        active_slots: int,
        hierarchy: "LAMHReport | None" = None,
    ) -> None:
        """Flush the final timeline window and publish end-of-run metrics.

        Keeps ``stats`` and the run's LAMH ``hierarchy`` report for
        readers that only see the instrument (``gramer profile``).
        """
        self.stats = stats
        self.hierarchy = hierarchy
        for window in self.sampler.finish(stats.cycles, stats, active_slots):
            self._emit_window(window)
        registry = self.registry
        if registry is not None:
            publish = getattr(stats, "publish", None)
            if publish is not None:
                publish(registry)
            latency = registry.histogram(
                "sim_steal_latency_cycles",
                "cycles an idle slot waited from first failed steal "
                "attempt to a successful steal",
            )
            for value in self.steal_latencies:
                latency.observe(value)

    def _emit_window(self, window: TimelineWindow) -> None:
        end = float(window.end_cycle)
        tracer = self.tracer
        tracer.counter(
            "hit_ratio",
            CATEGORY_MEMORY,
            end,
            PID_TIMELINE,
            {
                "vertex": round(window.vertex_hit_ratio, 4),
                "edge": round(window.edge_hit_ratio, 4),
            },
        )
        tracer.counter(
            "dram_accesses",
            CATEGORY_MEMORY,
            end,
            PID_TIMELINE,
            {"dram": float(window.dram_accesses)},
        )
        tracer.counter(
            "active_slots",
            CATEGORY_PU,
            end,
            PID_TIMELINE,
            {"busy": float(window.active_slots)},
        )

    # -- per-event hooks ----------------------------------------------------

    def root_dispatched(self, p: int, s: int, root: int, ts: int) -> None:
        """An initial embedding arrived from the Arbitrator."""
        self.tracer.instant(
            "root",
            CATEGORY_PU,
            float(ts),
            SIM_PID_BASE + p,
            s,
            vertex=root,
        )

    def step_started(self, p: int, s: int, ts: int, depth: int) -> None:
        """One extension step (propose/check or traceback) began."""
        self._step[(p, s)] = (ts, depth)

    def step_finished(self, p: int, s: int, ts: int) -> None:
        """The step's last recorded operation retired."""
        started = self._step.pop((p, s), None)
        if started is None:
            return
        start, depth = started
        self.tracer.complete(
            "extend",
            CATEGORY_PU,
            float(start),
            float(ts - start),
            SIM_PID_BASE + p,
            s,
            depth=depth,
        )

    def dram_fetch(
        self,
        p: int,
        s: int,
        kind: int,
        address: int,
        ts: int,
        dur: int,
        channel: int,
    ) -> None:
        """A request missed on-chip and went to DRAM."""
        self.tracer.complete(
            "dram",
            CATEGORY_MEMORY,
            float(ts),
            float(dur),
            SIM_PID_BASE + p,
            s,
            side=_KIND_NAMES[kind],
            address=address,
            channel=channel,
        )

    def steal_attempted(self, p: int, s: int, ts: int) -> None:
        """An idle slot probed for work (may repeat every retry period)."""
        key = (p, s)
        spell = self._steal_wait.get(key)
        if spell is None:
            self._steal_wait[key] = (ts, 1)
            self.tracer.instant(
                "steal_wait_start",
                CATEGORY_STEAL,
                float(ts),
                SIM_PID_BASE + p,
                s,
            )
        else:
            self._steal_wait[key] = (spell[0], spell[1] + 1)

    def steal_succeeded(self, p: int, s: int, ts: int) -> None:
        """A probe found splittable work; close the wait spell as a span."""
        key = (p, s)
        first, attempts = self._steal_wait.pop(key, (ts, 1))
        self.steal_latencies.append(ts - first)
        self.tracer.complete(
            "steal_wait",
            CATEGORY_STEAL,
            float(first),
            float(ts - first),
            SIM_PID_BASE + p,
            s,
            attempts=attempts,
        )


# -- typed access-event emit helpers ----------------------------------------
#
# All memory-access events flow through the helpers below (gramer check
# rule GRM602): producers attach a closure built here instead of writing
# ad-hoc dicts, so the AccessEvent schema has exactly one author.

_SIDE_REGION = {"vertex": "on1-rank", "edge": "adjacency"}
_LEVEL_NAMES = {"high": "high", "low_hit": "low", "miss": "offchip"}


_Serve = Callable[[int, str], None]
_Fill = Callable[[int], None]


def _serve_emitter(
    side_name: str, trace: AccessTrace, entry_bytes: int
) -> _Serve:
    region = _SIDE_REGION.get(side_name, side_name)
    component = f"lamh.{side_name}"

    def emit(rank: int, level: str) -> None:
        # Rank space: after ON1 reordering the rank *is* the physical
        # address, so off-chip fills land at rank * entry_bytes.
        trace.record(
            component=component,
            region=region,
            address=rank * entry_bytes,
            size=entry_bytes,
            rw="r",
            level=_LEVEL_NAMES[level],
        )

    return emit


def _fill_emitter(
    side_name: str, trace: AccessTrace, line_entries: int, entry_bytes: int
) -> _Fill:
    component = f"priority_cache.{side_name}"
    line_bytes = max(1, line_entries) * entry_bytes

    def emit(tag: int) -> None:
        trace.record(
            component=component,
            region="priority-cache",
            address=tag * line_bytes,
            size=line_bytes,
            rw="w",
            level="low",
        )

    return emit


def lamh_access_emitters(
    trace: AccessTrace,
    vertex_line: int,
    edge_line: int,
    entry_bytes: int = ACCESS_ENTRY_BYTES,
) -> tuple[tuple[_Serve, _Fill], tuple[_Serve, _Fill]]:
    """Emitters for LAMH service traffic and low-cache fills, by side.

    Returns ``((serve, fill), (serve, fill))`` for the vertex and the edge
    side, whose low caches hold ``vertex_line`` and ``edge_line`` entries
    per line.  ``serve(rank, level)`` records one request served at
    ``level`` (``"high"``, ``"low_hit"`` or ``"miss"``); ``fill(tag)``
    records the line a miss installs in the low-priority cache, and
    precedes that miss's ``serve``.  Both stamp ``trace.cycle``, which the
    simulator sets to the request's service start.  Each side labels its
    own fills, also when both share one low cache (the uniform baseline):
    a fill caused by a vertex miss is a ``priority_cache.vertex`` record.
    """
    vertex, edge = (
        (
            _serve_emitter(name, trace, entry_bytes),
            _fill_emitter(name, trace, line_entries, entry_bytes),
        )
        for name, line_entries in (("vertex", vertex_line), ("edge", edge_line))
    )
    return vertex, edge


def ancestor_push_emitter(
    trace: AccessTrace,
    depth_capacity: int,
    entry_bytes: int = ACCESS_ENTRY_BYTES,
) -> "Callable[[int, int, int], None]":
    """Emitter for GRAMER ancestor-buffer pushes (one record per frame)."""

    def emit(slot_id: int, depth: int, cycle: int) -> None:
        trace.record(
            component="pu.scheduler",
            region="ancestor-buffer",
            address=(slot_id * depth_capacity + depth) * entry_bytes,
            size=entry_bytes,
            rw="w",
            level="high",
            cycle=cycle,
        )

    return emit


class _CPUMemoryLike(Protocol):
    observer: "Callable[[int, bool, bool], None] | None"


def attach_cpu_observer(
    memory: _CPUMemoryLike,
    trace: AccessTrace,
    entry_bytes: int = ACCESS_ENTRY_BYTES,
) -> None:
    """Route a CPU baseline's post-L2 miss stream into ``trace``.

    The baseline stall model charges the full L2+L3 (and possibly DRAM)
    latency exactly at this boundary, so it is the CPU-side equivalent of
    the LAMH miss channel.  Addresses stay in the model's vid-space
    layout (CSR offsets array, then neighbors array).
    """
    counter = {"n": 0}

    def observe(byte_address: int, is_vertex: bool, dram: bool) -> None:
        counter["n"] += 1
        trace.record(
            component="cpu.llc" if not dram else "cpu.mem",
            region="on1-rank" if is_vertex else "adjacency",
            address=byte_address,
            size=entry_bytes,
            rw="r",
            level="offchip",
            cycle=counter["n"],
        )

    memory.observer = observe


def disk_spill_emitter(trace: AccessTrace) -> "Callable[[int, str], None]":
    """Emitter for RStream's embedding-region SSD traffic.

    Spills append sequentially; a byte cursor per direction models the
    stream layout (written once, read back once).
    """
    state = {"cursor": 0, "n": 0}

    def emit(nbytes: int, rw: str) -> None:
        if nbytes <= 0:
            return
        state["n"] += 1
        trace.record(
            component="disk",
            region="embedding",
            address=state["cursor"],
            size=nbytes,
            rw=rw,
            level="offchip",
            cycle=state["n"],
        )
        if rw == "w":
            state["cursor"] += nbytes

    return emit


# -- typed executor trace-event helpers -------------------------------------


def emit_job_event(
    tracer: Tracer,
    label: str,
    now_us: float,
    wall_seconds: float,
    cached: bool,
    **args: object,
) -> None:
    """One job's lifecycle event: an instant if cached, else a span.

    ``cached`` is stamped into the event args, so callers must not pass
    it again through ``**args``.
    """
    if cached:
        tracer.instant(
            f"job {label}",
            CATEGORY_EXECUTOR,
            now_us,
            PID_EXECUTOR,
            0,
            cached=True,
            **args,
        )
    else:
        dur_us = wall_seconds * 1e6
        tracer.complete(
            f"job {label}",
            CATEGORY_EXECUTOR,
            max(now_us - dur_us, 0.0),
            dur_us,
            PID_EXECUTOR,
            0,
            cached=False,
            **args,
        )


def emit_job_retry(
    tracer: Tracer, label: str, now_us: float, attempt: int, error: str
) -> None:
    """An executor-level retry of one job (transient failure)."""
    tracer.instant(
        f"retry {label}",
        CATEGORY_EXECUTOR,
        now_us,
        PID_EXECUTOR,
        0,
        attempt=attempt,
        error=error,
    )
