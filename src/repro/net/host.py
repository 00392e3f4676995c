"""Hosts and attachable network functions.

A :class:`Host` is an endpoint with one port.  Its behaviour is pluggable via
a :class:`NetworkFunction`: user hosts record received packets, middlebox
hosts and DPI service instances process packets and may emit new ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.addresses import IPv4Address, MACAddress
from repro.net.links import Link
from repro.net.packet import Packet
from repro.net.simulator import Simulator


class NetworkFunction:
    """Behaviour attached to a host.

    Subclasses override :meth:`process`, returning the packets to transmit in
    response (possibly including the input packet itself to forward it on).
    """

    #: The host the function is bound to; None until :meth:`attach`.
    host: "Host | None" = None

    def attach(self, host: "Host") -> None:
        """Called when the function is bound to its host."""
        self.host = host

    def process(self, packet: Packet) -> list[Packet]:
        """Handle one received packet; return packets to send."""
        raise NotImplementedError


class RecordingFunction(NetworkFunction):
    """Default endpoint behaviour: keep every received packet."""

    def __init__(self) -> None:
        self.received: list[Packet] = []

    def process(self, packet: Packet) -> list[Packet]:
        """Handle one received packet; return packets to send."""
        self.received.append(packet)
        return []


@dataclass
class HostStats:
    """Plain counters container."""
    packets_sent: int = 0
    packets_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0


class Host:
    """A single-homed network endpoint."""

    def __init__(
        self,
        simulator: Simulator,
        name: str,
        mac: MACAddress,
        ip: IPv4Address,
        function: NetworkFunction | None = None,
    ) -> None:
        self._simulator = simulator
        self.name = name
        self.mac = mac
        self.ip = ip
        self._link: Link | None = None
        self.stats = HostStats()
        # Lazily bound telemetry (the hub may attach after construction).
        self._hub = self._m_origin_packets = self._m_origin_bytes = None
        self.function = function if function is not None else RecordingFunction()
        self.function.attach(self)

    def set_function(self, function: NetworkFunction) -> None:
        """Replace the host's behaviour (e.g. once a DPI instance exists)."""
        self.function = function
        function.attach(self)

    def __repr__(self) -> str:
        return f"<Host {self.name} {self.ip} ({self.mac})>"

    @property
    def simulator(self) -> Simulator:
        """The discrete-event engine this host runs on."""
        return self._simulator

    def attach_link(self, port: int, link: Link) -> None:
        """Hosts have exactly one uplink (port number is ignored)."""
        if self._link is not None:
            raise ValueError(f"{self.name}: host already has a link")
        self._link = link

    def send(self, packet: Packet) -> bool:
        """Transmit *packet* on the uplink."""
        if self._link is None:
            raise RuntimeError(f"{self.name}: host has no link")
        self.stats.packets_sent += 1
        self.stats.bytes_sent += packet.hop_length()
        hub = self._simulator.telemetry
        if hub is not None and packet.trace is None and not packet.is_result_packet:
            # First transmission of a data packet: this host is its origin.
            if hub is not self._hub:
                self._hub = hub
                registry = hub.registry
                self._m_origin_packets = registry.counter(
                    "host_packets_origin_total", host=self.name
                )
                self._m_origin_bytes = registry.counter(
                    "host_payload_bytes_origin_total", host=self.name
                )
            self._m_origin_packets.inc()
            self._m_origin_bytes.inc(len(packet.payload))
            tracer = hub.tracer
            if tracer is not None:
                packet.trace = tracer.start_span("steer", None, {
                    "host": self.name,
                    "packet_id": packet.packet_id,
                    "payload_bytes": len(packet.payload),
                })
            else:
                # Sentinel context: marks the packet as already counted so
                # forwarding hops never look like origins.
                packet.trace = (0, 0)
        return self._link.send_from(self, packet)

    def receive(self, packet: Packet, port: int) -> None:
        """Deliver a packet to the host's network function."""
        self.stats.packets_received += 1
        self.stats.bytes_received += packet.hop_length()
        hub = self._simulator.telemetry
        if (
            hub is not None
            and hub.tracer is not None
            and packet.trace is not None
            and packet.trace[0]
        ):
            hub.tracer.start_span("deliver", packet.trace, {
                "host": self.name,
                "packet_id": packet.packet_id,
                "result": packet.is_result_packet,
            })
        for response in self.function.process(packet):
            self.send(response)

    @property
    def received_packets(self) -> list[Packet]:
        """Packets recorded by a :class:`RecordingFunction` endpoint."""
        if isinstance(self.function, RecordingFunction):
            return self.function.received
        raise TypeError(f"{self.name}: function does not record packets")
