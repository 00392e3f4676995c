"""Deterministic discrete-event simulator.

All data-plane components (links, switches, hosts) schedule work through one
:class:`Simulator`.  Events fire in timestamp order; ties break by insertion
order, which keeps runs fully reproducible.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable


@dataclass(order=True, slots=True)
class Event:
    """A scheduled callback; comparison order drives the event queue."""

    time: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    label: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)


class Simulator:
    """A minimal discrete-event engine with a simulated clock in seconds."""

    def __init__(self) -> None:
        self._queue: list[Event] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._events_processed = 0
        self._running = False
        self._reset_hooks: list[Callable[[], None]] = []
        #: The attached :class:`~repro.telemetry.TelemetryHub`, or None.
        #: Data-plane components read it lazily, so telemetry can be
        #: attached after the topology is built.
        self.telemetry = None

    def attach_telemetry(self, hub) -> None:
        """Attach a telemetry hub and register the simulator gauges.

        The gauges are callback-backed, so the event loop itself pays
        nothing to keep them current.
        """
        self.telemetry = hub
        registry = hub.registry
        registry.gauge_callback("sim_clock_seconds", lambda: self._now)
        registry.gauge_callback(
            "sim_events_processed", lambda: self._events_processed
        )
        registry.gauge_callback("sim_pending_events", lambda: len(self._queue))

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Events run since construction."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Events still queued."""
        return len(self._queue)

    def schedule(
        self, delay: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule *callback* to run *delay* seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past: delay={delay}")
        event = Event(self._now + delay, next(self._sequence), callback, label)
        heapq.heappush(self._queue, event)
        return event

    def schedule_at(
        self, time: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule *callback* at absolute simulated *time*, exactly: the
        event fires with ``now == time``, not one rounding step off."""
        now = self._now
        if time < now:
            raise ValueError(f"cannot schedule in the past: time={time} < now={now}")
        delay = time - now
        while now + delay < time:
            delay = math.nextafter(delay, math.inf)
        while now + delay > time:
            delay = math.nextafter(delay, -math.inf)
        return self.schedule(delay, callback, label)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event: it stays queued but will not run.

        Cancellation is how timers (heartbeat timeouts, retry backoff) are
        disarmed without disturbing the deterministic sequence numbering of
        the remaining events.  Cancelling an already-run or already-
        cancelled event is a no-op.
        """
        event.cancelled = True

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Process events until the queue drains, *until* passes, or
        *max_events* events have run.  Returns the number of events run."""
        processed = 0
        queue = self._queue
        pop = heapq.heappop
        limit = math.inf if max_events is None else max_events
        horizon = math.inf if until is None else until
        self._running = True
        try:
            while queue:
                if processed >= limit:
                    break
                if queue[0].time > horizon:
                    self._now = until
                    break
                event = pop(queue)
                if event.cancelled:
                    continue
                self._now = event.time
                event.callback()
                processed += 1
                self._events_processed += 1
        finally:
            self._running = False
        return processed

    def on_reset(self, hook: Callable[[], None]) -> None:
        """Call *hook* after every :meth:`reset` (for state that holds
        absolute simulated times or waits on a pending event)."""
        self._reset_hooks.append(hook)

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero."""
        if self._running:
            raise RuntimeError("cannot reset a running simulator")
        self._queue.clear()
        self._now = 0.0
        self._events_processed = 0
        for hook in self._reset_hooks:
            hook()
