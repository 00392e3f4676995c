"""Metrics registry: counters, gauges, fixed-bucket histograms.

Every metric is identified by a name plus a sorted label set (Prometheus
style).  The registry is clock-aware: it timestamps snapshots with whatever
clock it was built with — the discrete-event simulator's clock inside a
simulation, a wall clock for bare scans (see
:class:`~repro.telemetry.TelemetryHub`).

Counters are monotonic; a consumer that needs per-window rates keeps its
own previous values and differences them (the autoscaler's
``_CounterWatch``).
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import Any, Callable, Iterable, Sequence, TypedDict

#: Default histogram bucket upper bounds (seconds), tuned for per-packet
#: scan latencies: one microsecond up to one second.
DEFAULT_LATENCY_BUCKETS = (
    1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0,
)

#: A metric's identity: ``(name, sorted label items)``.
LabelKey = tuple[tuple[str, Any], ...]
MetricKey = tuple[str, LabelKey]

#: Any concrete metric type (written ``Counter | Gauge | Histogram`` once
#: the classes exist; a string alias keeps the forward reference readable).
Metric = "Counter | Gauge | Histogram"


class MetricPayload(TypedDict, total=False):
    """One metric's plain-dict rendering (the JSONL exporter's row shape).

    ``value`` is present for counters and gauges; ``sum``/``count``/
    ``buckets`` for histograms.  ``kind``, ``name`` and ``labels`` are
    always present.
    """

    kind: str
    name: str
    labels: dict[str, Any]
    value: float
    sum: float
    count: int
    buckets: list[list[Any]]


class RegistrySnapshot(TypedDict):
    """:meth:`MetricsRegistry.snapshot`'s shape: a timestamped collection."""

    ts: float
    metrics: list[MetricPayload]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: dict[str, Any]) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add *amount* (must be >= 0 to stay monotonic)."""
        self.value += amount

    def as_dict(self) -> MetricPayload:
        """A plain-dict rendering (for the JSONL exporter)."""
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Gauge:
    """A value that can go up and down; optionally callback-backed.

    A callback gauge reads its value lazily at collection time — used for
    quantities that already live elsewhere (flow-table sizes) so the hot
    path pays nothing to keep them current.
    """

    __slots__ = ("name", "labels", "_value", "callback")
    kind = "gauge"

    def __init__(self, name: str, labels: dict[str, Any]) -> None:
        self.name = name
        self.labels = labels
        self._value: float = 0
        self.callback: "Callable[[], float] | None" = None

    def set(self, value: float) -> None:
        """Set the gauge (ignored while a callback is bound)."""
        self._value = value

    def inc(self, amount: float = 1) -> None:
        """Add *amount* to the stored value."""
        self._value += amount

    @property
    def value(self) -> float:
        """The current value (evaluates the callback when bound)."""
        if self.callback is not None:
            return self.callback()
        return self._value

    def as_dict(self) -> MetricPayload:
        """A plain-dict rendering (for the JSONL exporter)."""
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


def percentile_from_counts(
    bounds: "Sequence[float]", counts: "Sequence[int]", quantile: float
) -> float:
    """Estimate the value at ``quantile`` from histogram bucket counts.

    ``bounds`` are the finite inclusive upper bounds and ``counts`` the
    per-bucket (non-cumulative) counts, one longer than ``bounds`` with the
    +Inf overflow bucket last — exactly the :class:`Histogram` layout.  This
    also works on *deltas* of ``bucket_counts`` between two snapshots, which
    is how the autoscaler computes a windowed p99 without resetting the
    histogram.  Interpolates linearly inside the winning bucket; overflow
    observations clamp to the largest finite bound.  Returns 0.0 when there
    are no observations.
    """
    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"quantile must be in (0, 1]: {quantile}")
    if len(counts) != len(bounds) + 1:
        raise ValueError(
            f"expected {len(bounds) + 1} bucket counts, got {len(counts)}"
        )
    total = sum(counts)
    if total <= 0:
        return 0.0
    rank = quantile * total
    cumulative = 0
    for index, bucket_count in enumerate(counts):
        if bucket_count <= 0:
            continue
        if cumulative + bucket_count >= rank:
            if index >= len(bounds):  # +Inf overflow: clamp to last bound
                return bounds[-1] if bounds else 0.0
            lower = bounds[index - 1] if index else 0.0
            upper = bounds[index]
            fraction = (rank - cumulative) / bucket_count
            return lower + (upper - lower) * fraction
        cumulative += bucket_count
    return bounds[-1] if bounds else 0.0


class Histogram:
    """Fixed-bucket histogram: per-bucket counts plus sum and count.

    ``bounds`` are inclusive upper bounds; one implicit +Inf bucket catches
    the overflow.  ``observe`` is a bisect plus three attribute updates, so
    it is cheap enough for the per-packet scan path.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "sum", "count")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: dict[str, Any],
        bounds: "Iterable[float] | None" = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self.bounds = tuple(bounds) if bounds is not None else DEFAULT_LATENCY_BUCKETS
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError(f"histogram bounds must be sorted: {self.bounds}")
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        """Average observed value (0.0 before any observation)."""
        return self.sum / self.count if self.count else 0.0

    def percentile(self, quantile: float) -> float:
        """Estimated value at ``quantile`` (0 < q <= 1) from the buckets.

        Linear interpolation inside the winning bucket; observations that
        landed in the +Inf overflow bucket clamp to the largest finite
        bound (the histogram cannot see past it).  Returns 0.0 before any
        observation.
        """
        return percentile_from_counts(self.bounds, self.bucket_counts, quantile)

    def percentiles(
        self, quantiles: "Iterable[float]" = (0.50, 0.95, 0.99)
    ) -> dict[float, float]:
        """``{quantile: estimated value}`` for each requested quantile."""
        return {q: self.percentile(q) for q in quantiles}

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper bound, cumulative count)`` pairs, +Inf last."""
        cumulative = 0
        rendered: list[tuple[float, int]] = []
        for bound, bucket_count in zip(self.bounds, self.bucket_counts):
            cumulative += bucket_count
            rendered.append((bound, cumulative))
        rendered.append((float("inf"), cumulative + self.bucket_counts[-1]))
        return rendered

    def as_dict(self) -> MetricPayload:
        """A plain-dict rendering (for the JSONL exporter)."""
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": dict(self.labels),
            "sum": self.sum,
            "count": self.count,
            "buckets": [
                [bound if bound != float("inf") else "+Inf", cumulative]
                for bound, cumulative in self.cumulative_buckets()
            ],
        }


class MetricsRegistry:
    """Named, labeled metrics with get-or-create accessors."""

    def __init__(self, clock: "Callable[[], float] | None" = None) -> None:
        self._clock = clock if clock is not None else time.monotonic
        self._metrics: "dict[MetricKey, Counter | Gauge | Histogram]" = {}
        self._kinds: dict[str, str] = {}

    def now(self) -> float:
        """The registry clock's current time."""
        return self._clock()

    def _get_or_create(self, factory, kind: str, name: str, labels: dict, **kw):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is not None:
            if self._kinds[name] != kind:
                raise TypeError(
                    f"metric {name!r} is a {self._kinds[name]}, not a {kind}"
                )
            return metric
        registered = self._kinds.setdefault(name, kind)
        if registered != kind:
            raise TypeError(f"metric {name!r} is a {registered}, not a {kind}")
        metric = factory(name, labels, **kw)
        self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels) -> Counter:
        """Get or create a counter."""
        return self._get_or_create(Counter, "counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """Get or create a gauge."""
        return self._get_or_create(Gauge, "gauge", name, labels)

    def gauge_callback(
        self, name: str, callback: Callable[[], float], **labels
    ) -> Gauge:
        """Get or create a gauge and (re)bind its value callback."""
        gauge = self.gauge(name, **labels)
        gauge.callback = callback
        return gauge

    def histogram(
        self, name: str, buckets: "Iterable[float] | None" = None, **labels
    ) -> Histogram:
        """Get or create a fixed-bucket histogram."""
        return self._get_or_create(
            Histogram, "histogram", name, labels, bounds=buckets
        )

    # --- queries ----------------------------------------------------------

    def get(self, name: str, **labels) -> "Counter | Gauge | Histogram | None":
        """The metric at (name, labels), or None."""
        return self._metrics.get((name, _label_key(labels)))

    def value(self, name: str, default: float = 0, **labels) -> float:
        """A counter/gauge value, or *default* when absent."""
        metric = self.get(name, **labels)
        return default if metric is None else metric.value

    def collect(self) -> "list[Counter | Gauge | Histogram]":
        """Every metric, sorted by (name, labels) for stable output."""
        return [self._metrics[key] for key in sorted(self._metrics)]

    def collect_named(self, name: str) -> "list[Counter | Gauge | Histogram]":
        """Every label variant of one metric name, sorted by labels."""
        return [
            self._metrics[key] for key in sorted(self._metrics) if key[0] == name
        ]

    def snapshot(self) -> RegistrySnapshot:
        """All current values, timestamped by the registry clock."""
        return {
            "ts": self.now(),
            "metrics": [metric.as_dict() for metric in self.collect()],
        }

    def drop(self, **labels) -> int:
        """Remove every metric whose label set includes *labels* (used when
        a DPI instance is torn down).  Returns how many were removed."""
        required = set(labels.items())
        doomed = [
            key
            for key, metric in self._metrics.items()
            if required <= set(metric.labels.items())
        ]
        for key in doomed:
            del self._metrics[key]
        return len(doomed)
