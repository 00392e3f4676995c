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
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field

#: Default bound on retained spans; old spans fall off the left end.
DEFAULT_MAX_SPANS = 10_000


@dataclass(slots=True)
class TraceSpan:
    """One operation within a trace."""

    name: str
    trace_id: int
    span_id: int
    parent_id: int | None
    start: float
    end: float | None = None
    attributes: dict = field(default_factory=dict)

    @property
    def context(self) -> tuple:
        """The ``(trace id, span id)`` tuple children parent themselves to."""
        return (self.trace_id, self.span_id)

    @property
    def duration(self) -> float | None:
        """Span duration, or None while unfinished."""
        return None if self.end is None else self.end - self.start

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
    """Creates and retains spans, bounded by *max_spans*."""

    def __init__(self, clock=None, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self._clock = clock if clock is not None else time.monotonic
        self._ids = itertools.count(1)
        self.spans: deque = deque(maxlen=max_spans)

    def now(self) -> float:
        """The tracer clock's current time."""
        return self._clock()

    def start_span(self, name: str, parent=None, at=None, **attributes) -> TraceSpan:
        """Open a span under *parent* — a ``(trace id, span id)`` tuple, a
        :class:`TraceSpan`, or None for the root of a new trace."""
        span_id = next(self._ids)
        if type(parent) is tuple:  # a packet's trace context: the hot path
            trace_id, parent_id = parent
        elif isinstance(parent, TraceSpan):
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = (None, None) if parent is None else parent
        if trace_id is None:
            trace_id = span_id
        start = self._clock() if at is None else at
        span = TraceSpan(name, trace_id, span_id, parent_id, start, None, attributes)
        self.spans.append(span)
        return span

    def record(
        self, name: str, parent=None, start=None, end=None, **attributes
    ) -> TraceSpan:
        """Record an already-finished span (point events on the hot path)."""
        span = self.start_span(name, parent=parent, at=start, **attributes)
        span.end = span.start if end is None else end
        return span

    # --- queries ----------------------------------------------------------

    def spans_named(self, name: str) -> list:
        """Every retained span with this name, in recording order."""
        return [span for span in self.spans if span.name == name]

    def trace(self, trace_id: int) -> list:
        """Every retained span of one trace, in recording order."""
        return [span for span in self.spans if span.trace_id == trace_id]

    def children_of(self, span: TraceSpan) -> list:
        """The retained spans whose parent is *span*."""
        return [
            candidate
            for candidate in self.spans
            if candidate.trace_id == span.trace_id
            and candidate.parent_id == span.span_id
        ]

    def tree(self, trace_id: int) -> dict | None:
        """The trace as a nested ``{"span": ..., "children": [...]}`` dict,
        or None when the trace has no root among retained spans."""
        spans = self.trace(trace_id)
        by_id = {span.span_id: {"span": span, "children": []} for span in spans}
        root = None
        for span in spans:
            node = by_id[span.span_id]
            parent = by_id.get(span.parent_id)
            if parent is not None:
                parent["children"].append(node)
            elif span.parent_id is None:
                root = node
        return root
