"""Structured tracing: spans that follow a packet end-to-end.

A packet's journey produces one *trace*: a ``steer`` root span when its
origin host first transmits it, a ``hop`` span at every switch, an
``inspect`` span at the DPI service instance (kernel, cache hit/miss, bytes,
matches), and a ``deliver`` span at each receiving host — including the
middlebox hosts that consume the result packet, which shares the data
packet's trace context.

The trace context travels on the packet itself (``Packet.trace``, a
``(trace id, span id)`` tuple preserved across switch copies and inherited
by result packets), so no global correlation state is needed.  Span ids are
sequential, which keeps traces fully deterministic under the simulator.

Recording a span is one tuple append: the tracer keeps ``(name, trace id,
span id, parent id, time, attributes)`` rows, and builds :class:`TraceSpan`
objects only when a reader asks for them.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass

#: Default bound on retained spans; old spans fall off the left end.
DEFAULT_MAX_SPANS = 10_000


@dataclass(slots=True)
class TraceSpan:
    """One recorded span, as the tracer's readers see it."""

    name: str
    trace_id: int
    span_id: int
    parent_id: int | None
    start: float
    end: float
    attributes: dict

    @property
    def context(self) -> tuple:
        """The ``(trace id, span id)`` tuple children parent themselves to."""
        return (self.trace_id, self.span_id)

    def as_dict(self) -> dict:
        """A plain-dict rendering (for the JSONL exporter)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "attributes": dict(self.attributes),
        }


class Tracer:
    """Records spans as rows, bounded by *max_spans*."""

    def __init__(self, clock=None, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self._clock = clock if clock is not None else time.monotonic
        self._ids = itertools.count(1)
        self._rows: deque = deque(maxlen=max_spans)

    def start_span(self, name: str, parent=None, attributes=None) -> tuple:
        """Record one span under *parent* — a ``(trace id, span id)`` tuple,
        or None for the root of a new trace — at the clock's current time,
        and return its context.

        The tracer keeps *attributes* as given, so pass a dict nobody
        mutates afterwards."""
        span_id = next(self._ids)
        if parent is None:
            trace_id, parent_id = span_id, None
        else:
            trace_id, parent_id = parent
        self._rows.append((
            name, trace_id, span_id, parent_id, self._clock(),
            {} if attributes is None else attributes,
        ))
        return (trace_id, span_id)

    @property
    def spans(self) -> list:
        """Every retained span, in recording order.  A span is a point in
        time, so its ``end`` equals its ``start``."""
        return [
            TraceSpan(name, trace_id, span_id, parent_id, at, at, attributes)
            for name, trace_id, span_id, parent_id, at, attributes in self._rows
        ]
