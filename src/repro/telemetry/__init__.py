"""Unified telemetry for the DPI service reproduction.

One :class:`TelemetryHub` bundles the three things every consumer needs:

* a :class:`~repro.telemetry.registry.MetricsRegistry` of counters, gauges
  and histograms (the autoscaler reads its load signals from it);
* a :class:`~repro.telemetry.tracing.Tracer` whose spans follow a packet
  end-to-end — TSA steering, switch hops, DPI inspection, middlebox result
  delivery;
* a clock.  Inside a simulation the hub reads the discrete-event
  :class:`~repro.net.simulator.Simulator` clock
  (:meth:`TelemetryHub.for_simulator`); bare scans outside a simulator fall
  back to the wall clock.

Exporters (:mod:`repro.telemetry.export`) dump the registry and the span
log as JSONL events or a Prometheus text-format page;
:mod:`repro.telemetry.report` renders the per-instance/per-chain summary
behind ``repro-dpi report``.

Telemetry is opt-in on the scan hot path: a
:class:`~repro.core.instance.DPIServiceInstance` built without a hub keeps
the zero-overhead fast path and produces byte-identical scan results
(``benchmarks/test_telemetry.py`` guards the enabled overhead at <5%).
"""

from __future__ import annotations

import time

from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile_from_counts,
)
from repro.telemetry.snapshot import FaultEvent, TelemetrySnapshot
from repro.telemetry.tracing import DEFAULT_MAX_SPANS, Tracer, TraceSpan

__all__ = [
    "Counter",
    "FaultEvent",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TelemetryHub",
    "TelemetrySnapshot",
    "Tracer",
    "TraceSpan",
    "percentile_from_counts",
]


class TelemetryHub:
    """Registry + tracer + clock, shared by every telemetry producer."""

    def __init__(
        self,
        clock=None,
        tracing: bool = True,
        max_spans: int = DEFAULT_MAX_SPANS,
    ) -> None:
        self._clock = clock if clock is not None else time.monotonic
        self.registry = MetricsRegistry(clock=self._clock)
        self.tracer = (
            Tracer(clock=self._clock, max_spans=max_spans) if tracing else None
        )
        self.faults: list[FaultEvent] = []

    def now(self) -> float:
        """The hub clock's current time."""
        return self._clock()

    def record_fault(
        self,
        kind: str,
        target: str,
        *,
        phase: str = "inject",
        detail: str = "",
    ) -> FaultEvent:
        """Append a :class:`FaultEvent` at the current hub time.

        Also bumps ``fault_events_total{kind,phase}`` so fault activity is
        visible in plain metric exports without reading the event log.
        """
        event = FaultEvent(
            time=self.now(), kind=kind, target=target, phase=phase,
            detail=detail,
        )
        self.faults.append(event)
        self.registry.counter(
            "fault_events_total", kind=kind, phase=phase
        ).inc()
        return event

    @classmethod
    def for_simulator(cls, simulator, **kwargs) -> "TelemetryHub":
        """A hub timestamped by *simulator*'s clock, attached to it so the
        data plane (hosts, switches, links) records into it too."""
        hub = cls(clock=lambda: simulator.now, **kwargs)
        simulator.attach_telemetry(hub)
        return hub
