"""Structured memory-access event channel — the raw feed of ``memprofile``.

The fourth pillar of the observability subsystem: producers (the GRAMER
simulator's LAMH emitters, the CPU baseline's cache stack, the RStream
disk spill path) record one :class:`AccessEvent` per memory transaction
into an :class:`AccessTrace`; the offline analyzer
(:mod:`repro.obs.locality_report`) turns the stream into the per-region
traffic taxonomy, reuse-distance histograms, and spatial-utilization
scores behind ``gramer memprofile``.

Like the tracer, this module is a leaf: it never imports the simulator or
the memory hierarchy.  Emit sites reach it through the typed helpers in
:mod:`repro.obs.hooks` (enforced by ``gramer check`` rule GRM602), every
hook is guarded by ``if ... is not None`` at the call site, and recording
only appends to the trace — an ``access_trace=`` run is bit-identical to
an untraced one (asserted by ``tests/obs/``).

Regions
-------
Every event names one of five data-structure regions:

* ``adjacency`` — CSR edge slots (GRAMER: rank-space addresses, i.e. the
  physical position in the ON1-reordered edge array; baselines: the
  vid-space neighbors array).
* ``on1-rank`` — vertex records (GRAMER: rank space; baselines: the CSR
  offsets array).
* ``embedding`` — intermediate-embedding traffic (RStream's SSD spills).
* ``ancestor-buffer`` — GRAMER's per-slot DFS ancestor records (§V-A).
* ``priority-cache`` — fill inserts into the LAMH low-priority cache.

``level`` records where the request was served: ``high`` (pinned
scratchpad / on-chip buffer), ``low`` (low-priority cache hit), or
``offchip`` (DRAM / post-LLC / disk).  The analyzer's *traffic* channel
selects ``offchip`` events — the stream a memory controller would see.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .log import get_logger

__all__ = [
    "ACCESS_SCHEMA_VERSION",
    "ACCESS_ENTRY_BYTES",
    "REGIONS",
    "LEVELS",
    "AccessEvent",
    "AccessSchemaError",
    "AccessTrace",
    "AccessTraceSet",
    "validate_access_event",
]

_log = get_logger("obs.access")

#: Version stamped into every serialized trace header.  Readers reject
#: traces from the future and warn (best-effort parse) on older ones.
ACCESS_SCHEMA_VERSION = 1

#: One vertex record / CSR edge slot is 8 bytes across the whole model
#: (matches ``CPUConfig.entry_bytes`` and the accelerator's word size).
ACCESS_ENTRY_BYTES = 8

REGIONS = (
    "adjacency",
    "on1-rank",
    "embedding",
    "ancestor-buffer",
    "priority-cache",
)

LEVELS = ("high", "low", "offchip")

_RWS = ("r", "w")


class AccessSchemaError(ValueError):
    """A serialized access trace is unreadable by this code version."""


@dataclass(frozen=True, slots=True)
class AccessEvent:
    """One memory transaction as seen by an emit site."""

    component: str  # emitting unit, e.g. "lamh.edge", "cpu.llc", "disk"
    region: str  # one of REGIONS
    address: int  # byte address within the region's address space
    size: int  # bytes demanded by the request
    cycle: int  # service time (sim cycles / logical sequence number)
    rw: str  # "r" | "w"
    level: str  # "high" | "low" | "offchip"

    def as_record(self) -> dict[str, object]:
        """Plain-dict form for JSONL serialization."""
        return {
            "component": self.component,
            "region": self.region,
            "address": self.address,
            "size": self.size,
            "cycle": self.cycle,
            "rw": self.rw,
            "level": self.level,
        }


def validate_access_event(record: Mapping[str, object]) -> list[str]:
    """Schema-check one serialized event; return problems (empty = valid)."""
    problems: list[str] = []
    for key, kinds in (
        ("component", (str,)),
        ("region", (str,)),
        ("address", (int,)),
        ("size", (int,)),
        ("cycle", (int,)),
        ("rw", (str,)),
        ("level", (str,)),
    ):
        if key not in record:
            problems.append(f"missing required key {key!r}")
        elif not isinstance(record[key], kinds) or isinstance(
            record[key], bool
        ):
            problems.append(
                f"key {key!r} has type {type(record[key]).__name__}"
            )
    region = record.get("region")
    if isinstance(region, str) and region not in REGIONS:
        problems.append(f"unknown region {region!r}")
    rw = record.get("rw")
    if isinstance(rw, str) and rw not in _RWS:
        problems.append(f"rw must be 'r' or 'w', got {rw!r}")
    level = record.get("level")
    if isinstance(level, str) and level not in LEVELS:
        problems.append(f"unknown level {level!r}")
    for key in ("address", "size"):
        value = record.get(key)
        if isinstance(value, int) and not isinstance(value, bool) and value < 0:
            problems.append(f"negative {key} {value}")
    return problems


class AccessTrace:
    """Append-only buffer of :class:`AccessEvent` for one run.

    ``cycle`` is a mutable clock producers may update as simulated time
    advances; :meth:`record` stamps it on events that do not carry their
    own timestamp.  The trace itself never influences the producer — it
    only accumulates.
    """

    enabled = True

    def __init__(self, meta: Mapping[str, object] | None = None) -> None:
        self.meta: dict[str, object] = dict(meta or {})
        self.events: list[AccessEvent] = []
        self.cycle = 0

    def __len__(self) -> int:
        return len(self.events)

    def record(
        self,
        component: str,
        region: str,
        address: int,
        size: int,
        rw: str,
        level: str,
        cycle: int | None = None,
    ) -> None:
        """Append one event (stamped with the trace clock by default)."""
        self.events.append(
            AccessEvent(
                component=component,
                region=region,
                address=int(address),
                size=int(size),
                cycle=int(self.cycle if cycle is None else cycle),
                rw=rw,
                level=level,
            )
        )

    def regions(self) -> list[str]:
        """Distinct regions present, in REGIONS order."""
        present = {event.region for event in self.events}
        return [region for region in REGIONS if region in present]

    def select(
        self, region: str | None = None, level: str | None = None
    ) -> list[AccessEvent]:
        """Events filtered by region and/or service level, in trace order."""
        return [
            event
            for event in self.events
            if (region is None or event.region == region)
            and (level is None or event.level == level)
        ]

    # -- serialization ------------------------------------------------------

    def header(self) -> dict[str, object]:
        """The JSONL header line (schema version + run metadata)."""
        return {
            "schema_version": ACCESS_SCHEMA_VERSION,
            "kind": "gramer-access-trace",
            "meta": dict(self.meta),
        }

    def write_jsonl(self, path: str | Path) -> Path:
        """Serialize header + one event per line to ``path``."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        lines = [json.dumps(self.header(), separators=(",", ":"))]
        lines.extend(
            json.dumps(event.as_record(), separators=(",", ":"))
            for event in self.events
        )
        target.write_text("\n".join(lines) + "\n")
        return target

    @classmethod
    def read_jsonl(cls, path: str | Path) -> "AccessTrace":
        """Load a serialized trace, enforcing the schema-version contract.

        Traces written by a *newer* schema raise
        :class:`AccessSchemaError` — silently misreading fields would be
        worse than failing.  Traces from an *older* schema (or with no
        header at all, the pre-versioning format) log a warning and parse
        best-effort; events failing validation are dropped with a count.
        """
        source = Path(path)
        lines = [
            line
            for line in source.read_text().splitlines()
            if line.strip()
        ]
        if not lines:
            return cls()
        first = json.loads(lines[0])
        body = lines
        meta: dict[str, object] = {}
        if isinstance(first, dict) and "schema_version" in first:
            version = first["schema_version"]
            if not isinstance(version, int) or isinstance(version, bool):
                raise AccessSchemaError(
                    f"{source}: non-integer schema_version {version!r}"
                )
            if version > ACCESS_SCHEMA_VERSION:
                raise AccessSchemaError(
                    f"{source}: schema_version {version} is newer than "
                    f"supported version {ACCESS_SCHEMA_VERSION}; upgrade "
                    "the reader"
                )
            if version < ACCESS_SCHEMA_VERSION:
                _log.warning(
                    "%s: old access-trace schema_version %d (current %d); "
                    "parsing best-effort",
                    source,
                    version,
                    ACCESS_SCHEMA_VERSION,
                )
            raw_meta = first.get("meta")
            if isinstance(raw_meta, dict):
                meta = raw_meta
            body = lines[1:]
        else:
            _log.warning(
                "%s: no schema header (pre-versioning trace); "
                "parsing best-effort",
                source,
            )
        trace = cls(meta=meta)
        dropped = 0
        for line in body:
            record = json.loads(line)
            if not isinstance(record, dict) or validate_access_event(record):
                dropped += 1
                continue
            trace.record(
                component=record["component"],
                region=record["region"],
                address=record["address"],
                size=record["size"],
                rw=record["rw"],
                level=record["level"],
                cycle=record["cycle"],
            )
        if dropped:
            _log.warning(
                "%s: dropped %d invalid event line(s)", source, dropped
            )
        return trace


class AccessTraceSet:
    """Ordered collection of per-job traces for a multi-spec run.

    ``Executor.run(..., access_traces=...)`` opens one trace per spec;
    callers read them back by label after the run.
    """

    def __init__(self) -> None:
        self.traces: dict[str, AccessTrace] = {}

    def open(
        self, label: str, **meta: object
    ) -> AccessTrace:
        """Create (or replace) the trace registered under ``label``."""
        trace = AccessTrace(meta={"label": label, **meta})
        self.traces[label] = trace
        return trace

    def get(self, label: str) -> AccessTrace | None:
        return self.traces.get(label)

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self) -> Iterable[tuple[str, AccessTrace]]:
        return iter(self.traces.items())
