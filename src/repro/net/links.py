"""Point-to-point links with bandwidth, propagation delay and FIFO queueing.

A link connects two ports (each port belongs to a :class:`~repro.net.switch.
Switch` or a :class:`~repro.net.host.Host`).  Transmission is serialized: a
packet occupies the link for ``wire_length * 8 / bandwidth_bps`` seconds and
arrives ``propagation_delay`` later.  A finite queue drops tail packets and
counts the drops.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any

from repro.net.packet import Packet
from repro.net.simulator import Simulator


@dataclass
class LinkStats:
    """Counters for one direction of a link."""

    packets_sent: int = 0
    bytes_sent: int = 0
    packets_dropped: int = 0

    def snapshot(self) -> dict:
        """A plain-dict copy of the counters."""
        return {
            "packets_sent": self.packets_sent,
            "bytes_sent": self.bytes_sent,
            "packets_dropped": self.packets_dropped,
        }


class LinkNotAttachedError(RuntimeError):
    """A link was used before :meth:`Link.attach` gave it two endpoints."""


class _Direction:
    """One direction of a full-duplex link.

    The wire is busy until ``_free_at``.  A send onto an idle wire with an
    empty queue transmits at once and schedules only its ``link-arrive``
    event; a backlog schedules one ``link-free`` drain event at
    ``_free_at``, which re-arms itself until the queue is empty.
    """

    def __init__(
        self,
        simulator: Simulator,
        bandwidth_bps: float,
        propagation_delay: float,
        queue_capacity: int,
    ) -> None:
        self._simulator = simulator
        self._bandwidth_bps = bandwidth_bps
        self._propagation_delay = propagation_delay
        self._queue: deque[Packet] = deque()
        self._queue_capacity = queue_capacity
        self._free_at = 0.0
        self._draining = False
        self.stats = LinkStats()
        self.deliver: Any = None  # set by Link.attach
        self.label = None  # set by Link.attach
        # Lazily bound telemetry (the hub may attach after construction).
        self._hub = None
        self._m_packets = None
        self._m_bytes = None
        self._m_drops = None
        simulator.on_reset(self._rewind)

    def _bind_telemetry(self, hub) -> None:
        self._hub = hub
        registry = hub.registry
        label = self.label if self.label is not None else "?"
        self._m_packets = registry.counter("link_packets_total", link=label)
        self._m_bytes = registry.counter("link_bytes_total", link=label)
        self._m_drops = registry.counter("link_drops_total", link=label)
        registry.gauge_callback(
            "link_queue_depth", lambda: len(self._queue), link=label
        )

    def drop(self) -> None:
        """Count one dropped packet (tail drop or admin-down refusal)."""
        hub = self._simulator.telemetry
        if hub is not None and hub is not self._hub:
            self._bind_telemetry(hub)
        self.stats.packets_dropped += 1
        if self._m_drops is not None:
            self._m_drops.inc()

    def send(self, packet: Packet) -> bool:
        """Transmit or enqueue *packet*; returns False if it was tail-dropped."""
        simulator = self._simulator
        hub = simulator.telemetry
        if hub is not None and hub is not self._hub:
            self._bind_telemetry(hub)
        queue = self._queue
        if len(queue) >= self._queue_capacity:
            self.drop()
            return False
        if not queue and simulator.now >= self._free_at:
            self._transmit(packet)
            return True
        queue.append(packet)
        if not self._draining:
            self._draining = True
            simulator.schedule_at(self._free_at, self._drain, label="link-free")
        return True

    def _drain(self) -> None:
        queue = self._queue
        self._transmit(queue.popleft())
        if queue:
            self._simulator.schedule_at(self._free_at, self._drain, label="link-free")
        else:
            self._draining = False

    def _rewind(self) -> None:
        """The simulator was reset: its clock restarts at zero."""
        self._free_at = 0.0
        if self._queue:  # still draining, but the drain event is gone
            self._simulator.schedule(0.0, self._drain, label="link-free")

    def _transmit(self, packet: Packet) -> None:
        simulator = self._simulator
        length = packet.hop_length()
        transmit_time = length * 8 / self._bandwidth_bps
        self._free_at = simulator.now + transmit_time
        stats = self.stats
        stats.packets_sent += 1
        stats.bytes_sent += length
        if self._m_packets is not None:
            self._m_packets.inc()
            self._m_bytes.inc(length)
        simulator.schedule(
            transmit_time + self._propagation_delay,
            partial(self.deliver, packet),
            label="link-arrive",
        )


class Link:
    """A full-duplex link between two nodes.

    Nodes are any objects with a ``receive(packet, port)`` method; the link is
    attached with the port number each endpoint uses for it.
    """

    DEFAULT_BANDWIDTH_BPS = 1e9  # 1 Gbps
    DEFAULT_PROPAGATION_DELAY = 50e-6  # 50 microseconds
    DEFAULT_QUEUE_CAPACITY = 1000  # packets

    def __init__(
        self,
        simulator: Simulator,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
        propagation_delay: float = DEFAULT_PROPAGATION_DELAY,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive: {bandwidth_bps}")
        if propagation_delay < 0:
            raise ValueError(f"negative propagation delay: {propagation_delay}")
        self._forward = _Direction(
            simulator, bandwidth_bps, propagation_delay, queue_capacity
        )
        self._backward = _Direction(
            simulator, bandwidth_bps, propagation_delay, queue_capacity
        )
        self._endpoint_a = None
        self._endpoint_b = None
        self.bandwidth_bps = bandwidth_bps
        self.propagation_delay = propagation_delay
        #: Administrative state: a downed link refuses new sends (counted
        #: as drops in both stats and telemetry).  Packets already on the
        #: wire when the link goes down still arrive — only queueing of new
        #: ones stops, mirroring a pulled cable.
        self.admin_up = True

    def attach(self, node_a, port_a: int, node_b, port_b: int) -> None:
        """Connect *node_a* (at *port_a*) with *node_b* (at *port_b*)."""
        self._endpoint_a = (node_a, port_a)
        self._endpoint_b = (node_b, port_b)
        name_a = getattr(node_a, "name", str(node_a))
        name_b = getattr(node_b, "name", str(node_b))
        self._forward.label = f"{name_a}->{name_b}"
        self._backward.label = f"{name_b}->{name_a}"
        self._forward.deliver = lambda packet: node_b.receive(packet, port_b)
        self._backward.deliver = lambda packet: node_a.receive(packet, port_a)

    def endpoints(self) -> tuple:
        """The two (node, port) attachments."""
        return (self._endpoint_a, self._endpoint_b)

    def set_admin(self, up: bool) -> None:
        """Take the link administratively down (``False``) or up (``True``)."""
        self.admin_up = up

    def send_from(self, node, packet: Packet) -> bool:
        """Send *packet* out of the link from *node*'s side."""
        if self._endpoint_a is None:
            raise LinkNotAttachedError("link is not attached")
        if node is self._endpoint_a[0]:
            direction = self._forward
        elif node is self._endpoint_b[0]:
            direction = self._backward
        else:
            raise ValueError(f"{node!r} is not an endpoint of this link")
        if not self.admin_up:
            direction.drop()
            return False
        return direction.send(packet)

    def stats_from(self, node) -> LinkStats:
        """Transmission counters for the direction leaving *node*."""
        if self._endpoint_a is None:
            raise LinkNotAttachedError("link is not attached")
        if node is self._endpoint_a[0]:
            return self._forward.stats
        if node is self._endpoint_b[0]:
            return self._backward.stats
        raise ValueError(f"{node!r} is not an endpoint of this link")
