"""Metrics registry — counters, gauges, and histograms with label support.

The first pillar of the observability subsystem: a process-local registry
that :class:`~repro.accel.stats.SimStats` and the memory hierarchy's
:class:`~repro.memory.hierarchy.LAMHReport` publish into, so one ``gramer
profile`` run (or a test) can read both through a single interface.

Design points:

* **Labels.**  Every sample carries a label set (``side="vertex"``,
  ``level="high"``); a metric is a family of series keyed by the sorted
  label tuple, mirroring the Prometheus data model without the dependency.
* **Get-or-create.**  ``registry.counter(name)`` returns the existing
  metric when the name is already registered (and raises if it was
  registered as a different kind), so independent publishers can share
  families without coordination.
* **Determinism.**  :meth:`MetricsRegistry.render_text` and
  :meth:`MetricsRegistry.as_dict` emit in sorted order — two identical
  runs render byte-identical metric dumps.
"""

from __future__ import annotations

from math import ceil
from typing import Iterator, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LabelSet",
    "Metric",
    "MetricsRegistry",
    "percentile",
]

LabelSet = tuple[tuple[str, str], ...]


def _label_set(labels: Mapping[str, object]) -> LabelSet:
    """Canonical (sorted) label tuple for one sample."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape per the Prometheus exposition format: ``\\``, ``"``, newline."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(labels: LabelSet) -> str:
    if not labels:
        return ""
    return (
        "{"
        + ",".join(
            f'{key}="{_escape_label_value(value)}"' for key, value in labels
        )
        + "}"
    )


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 100])."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, ceil(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


class Metric:
    """Base: a named family of labeled series."""

    kind = "metric"

    def __init__(self, name: str, help_text: str = "") -> None:
        if not name:
            raise ValueError("metric name must be non-empty")
        self.name = name
        self.help = help_text

    def series(self) -> dict[LabelSet, object]:  # pragma: no cover - abstract
        raise NotImplementedError


class Counter(Metric):
    """Monotonically increasing count (events, accesses, cycles)."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = "") -> None:
        super().__init__(name, help_text)
        self._values: dict[LabelSet, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (>= 0) to the series selected by ``labels``."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        key = _label_set(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        """Current value of one series (0.0 when never incremented)."""
        return self._values.get(_label_set(labels), 0.0)

    def total(self) -> float:
        """Sum over every series of the family."""
        return sum(self._values.values())

    def series(self) -> dict[LabelSet, object]:
        return dict(sorted(self._values.items()))


class Gauge(Metric):
    """Point-in-time value (ratios, occupancy)."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str = "") -> None:
        super().__init__(name, help_text)
        self._values: dict[LabelSet, float] = {}

    def set(self, value: float, **labels: object) -> None:
        """Record the current value of one series."""
        self._values[_label_set(labels)] = float(value)

    def value(self, **labels: object) -> float:
        return self._values.get(_label_set(labels), 0.0)

    def series(self) -> dict[LabelSet, object]:
        return dict(sorted(self._values.items()))


class Histogram(Metric):
    """Distribution of observed values (latencies, job durations).

    Raw observations are retained per series — at profiling scale (one
    observation per job or steal, not per cycle) exact percentiles beat
    pre-bucketing.
    """

    kind = "histogram"

    def __init__(self, name: str, help_text: str = "") -> None:
        super().__init__(name, help_text)
        self._values: dict[LabelSet, list[float]] = {}

    def observe(self, value: float, **labels: object) -> None:
        """Record one observation in the series selected by ``labels``."""
        self._values.setdefault(_label_set(labels), []).append(float(value))

    def count(self, **labels: object) -> int:
        return len(self._values.get(_label_set(labels), []))

    def summary(self, **labels: object) -> dict[str, float]:
        """count/sum/min/max/p50/p90/p99 of one series (zeros when empty)."""
        values = self._values.get(_label_set(labels), [])
        if not values:
            return {key: 0.0 for key in
                    ("count", "sum", "min", "max", "p50", "p90", "p99")}
        return {
            "count": float(len(values)),
            "sum": sum(values),
            "min": min(values),
            "max": max(values),
            "p50": percentile(values, 50),
            "p90": percentile(values, 90),
            "p99": percentile(values, 99),
        }

    def series(self) -> dict[LabelSet, object]:
        return {
            key: self.summary(**dict(key))
            for key in sorted(self._values)
        }


class MetricsRegistry:
    """Named metric families, get-or-create, rendered deterministically."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def _get_or_create(
        self, name: str, help_text: str, cls: type[Metric]
    ) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}"
                )
            return existing
        metric = cls(name, help_text)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        metric = self._get_or_create(name, help_text, Counter)
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        metric = self._get_or_create(name, help_text, Gauge)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(self, name: str, help_text: str = "") -> Histogram:
        metric = self._get_or_create(name, help_text, Histogram)
        assert isinstance(metric, Histogram)
        return metric

    def get(self, name: str) -> Metric:
        """Resolve one registered family by name (KeyError when absent)."""
        return self._metrics[name]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        for name in sorted(self._metrics):
            yield self._metrics[name]

    def as_dict(self) -> dict[str, dict[str, object]]:
        """Nested plain-dict dump (JSON-friendly, deterministic order)."""
        return {
            metric.name: {
                "kind": metric.kind,
                "help": metric.help,
                "series": {
                    _render_labels(key) or "{}": value
                    for key, value in metric.series().items()
                },
            }
            for metric in self
        }

    def render_text(self) -> str:
        """Prometheus-style text exposition (sorted, byte-deterministic)."""
        lines: list[str] = []
        for metric in self:
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for key, value in metric.series().items():
                rendered = _render_labels(key)
                if isinstance(value, dict):
                    for stat, stat_value in value.items():
                        lines.append(
                            f"{metric.name}_{stat}{rendered} {stat_value:g}"
                        )
                else:
                    lines.append(f"{metric.name}{rendered} {value:g}")
        return "\n".join(lines)
