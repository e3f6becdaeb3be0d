"""Observability subsystem: metrics, event tracing, windowed timelines.

Three pillars (see ``docs/observability.md``):

* :mod:`repro.obs.metrics` — a process-local registry of labeled
  counters/gauges/histograms that ``SimStats`` and the memory hierarchy's
  ``LAMHReport`` publish into;
* :mod:`repro.obs.tracer` — structured spans/instants serialized to JSONL
  and Chrome-trace (Perfetto-loadable) formats, with :class:`NullTracer`
  as the zero-overhead disabled path;
* :mod:`repro.obs.timeline` — a windowed sampler that turns end-of-run
  counters into per-window trajectories (hit ratios, stall attribution,
  occupancy phases).

:mod:`repro.obs.hooks` wires the three into the simulator's event loop;
:mod:`repro.obs.report` renders the ``gramer profile`` text report; and
:mod:`repro.obs.log` is the sanctioned logging/console channel enforced
by ``gramer check`` rule GRM601.
"""

from .access import (
    ACCESS_SCHEMA_VERSION,
    AccessEvent,
    AccessSchemaError,
    AccessTrace,
    AccessTraceSet,
    validate_access_event,
)
from .hooks import SimInstrument
from .locality_report import (
    aggregate_reports,
    analyze_trace,
    compare_reports,
    reuse_profile,
    spatial_utilization,
    stack_distances,
    taxonomy,
)
from .log import console, get_logger
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
)
from .report import (
    render_access_table_markdown,
    render_memprofile,
    render_memprofile_compare,
    render_memprofile_markdown,
    render_profile,
)
from .timeline import TimelineSampler, TimelineWindow
from .tracer import (
    CATEGORY_EXECUTOR,
    CATEGORY_MEMORY,
    CATEGORY_PU,
    CATEGORY_STEAL,
    TRACE_SCHEMA_VERSION,
    NullTracer,
    PID_EXECUTOR,
    PID_TIMELINE,
    SIM_PID_BASE,
    TraceEvent,
    TraceSchemaError,
    Tracer,
    read_jsonl,
    validate_event,
)

__all__ = [
    "ACCESS_SCHEMA_VERSION",
    "CATEGORY_EXECUTOR",
    "CATEGORY_MEMORY",
    "CATEGORY_PU",
    "CATEGORY_STEAL",
    "AccessEvent",
    "AccessSchemaError",
    "AccessTrace",
    "AccessTraceSet",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullTracer",
    "PID_EXECUTOR",
    "PID_TIMELINE",
    "SIM_PID_BASE",
    "SimInstrument",
    "TRACE_SCHEMA_VERSION",
    "TimelineSampler",
    "TimelineWindow",
    "TraceEvent",
    "TraceSchemaError",
    "Tracer",
    "aggregate_reports",
    "analyze_trace",
    "compare_reports",
    "console",
    "get_logger",
    "percentile",
    "read_jsonl",
    "render_access_table_markdown",
    "render_memprofile",
    "render_memprofile_compare",
    "render_memprofile_markdown",
    "render_profile",
    "reuse_profile",
    "spatial_utilization",
    "stack_distances",
    "taxonomy",
    "validate_access_event",
]
