"""An OpenFlow-style switch for the simulated data plane.

The switch applies its flow table to every packet.  On a table miss it
forwards the packet to its controller (packet-in), which may install rules
(flow-mod) and tell the switch what to do with the pending packet
(packet-out).  Without a controller, missed packets are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.links import Link
from repro.net.openflow import ActionType, FlowEntry, FlowTable
from repro.net.packet import Packet
from repro.net.simulator import Simulator


@dataclass
class SwitchStats:
    """Plain counters container."""
    packets_received: int = 0
    packets_forwarded: int = 0
    packets_flooded: int = 0
    packets_dropped: int = 0
    table_misses: int = 0


class Switch:
    """A named switch with numbered ports and a single flow table."""

    def __init__(self, simulator: Simulator, name: str) -> None:
        self._simulator = simulator
        self.name = name
        self.table = FlowTable()
        self._ports: dict[int, Link] = {}
        self._controller = None
        self.stats = SwitchStats()
        # Lazily bound telemetry (the hub may attach after construction).
        self._hub = None
        self._m_packets = None
        self._m_misses = None

    def __repr__(self) -> str:
        return f"<Switch {self.name} ports={sorted(self._ports)}>"

    # --- wiring -----------------------------------------------------------

    def attach_link(self, port: int, link: Link) -> None:
        """Bind *link* to *port*; ports must be unique."""
        if port in self._ports:
            raise ValueError(f"{self.name}: port {port} already in use")
        self._ports[port] = link

    def set_controller(self, controller) -> None:
        """Register the SDN controller receiving packet-in events."""
        self._controller = controller

    @property
    def ports(self) -> list[int]:
        """The switch's port numbers, sorted."""
        return sorted(self._ports)

    # --- data plane ---------------------------------------------------------

    def receive(self, packet: Packet, in_port: int) -> None:
        """Handle a packet arriving on *in_port*."""
        self.stats.packets_received += 1
        hub = self._simulator.telemetry
        if hub is not None:
            if hub is not self._hub:
                self._hub = hub
                registry = hub.registry
                self._m_packets = registry.counter(
                    "switch_packets_total", switch=self.name
                )
                self._m_misses = registry.counter(
                    "switch_table_misses_total", switch=self.name
                )
            self._m_packets.inc()
            tracer = hub.tracer
            trace = packet.trace
            if tracer is not None and trace is not None and trace[0]:
                tags = packet.vlan_stack
                tracer.start_span("hop", trace, {
                    "switch": self.name,
                    "port": in_port,
                    "vid": tags[-1].vid if tags else None,
                })
        entry = self.table.lookup(packet, in_port)
        if entry is None:
            self.stats.table_misses += 1
            if self._m_misses is not None and hub is not None:
                self._m_misses.inc()
            if self._controller is not None:
                self._controller.packet_in(self, packet, in_port)
            else:
                self.stats.packets_dropped += 1
            return
        self.execute(packet, entry.actions, in_port)

    def execute(self, packet: Packet, actions, in_port: int) -> None:
        """Execute an explicit action list (used for packet-out too).

        The switch owns *packet* and applies header actions to it in place.
        An ``OUTPUT`` or ``CONTROLLER`` that is the last action hands over
        *packet* itself; an earlier one hands over a copy, so every port sees
        the headers as they stood at its output."""
        forwarded = False
        last = len(actions) - 1
        for index, action in enumerate(actions):
            if action.type is ActionType.OUTPUT:
                self._send(packet if index == last else packet.copy(), action.argument)
                forwarded = True
            elif action.type is ActionType.FLOOD:
                self._flood(packet, in_port)
                forwarded = True
            elif action.type is ActionType.DROP:
                self.stats.packets_dropped += 1
                return
            elif action.type is ActionType.CONTROLLER:
                if self._controller is not None:
                    self._controller.packet_in(
                        self, packet if index == last else packet.copy(), in_port
                    )
                forwarded = True
            else:
                action.apply(packet)
        if not forwarded:
            self.stats.packets_dropped += 1

    def _send(self, packet: Packet, port: int) -> None:
        link = self._ports.get(port)
        if link is None:
            self.stats.packets_dropped += 1
            return
        self.stats.packets_forwarded += 1
        link.send_from(self, packet)

    def _flood(self, packet: Packet, in_port: int) -> None:
        self.stats.packets_flooded += 1
        for port, link in self._ports.items():
            if port == in_port:
                continue
            link.send_from(self, packet.copy())

    # --- control plane -----------------------------------------------------

    def flow_mod(self, entry: FlowEntry) -> FlowEntry:
        """Install a flow entry (controller -> switch)."""
        return self.table.install(entry)

    def packet_out(self, packet: Packet, actions, in_port: int = -1) -> None:
        """Inject *packet* with an explicit action list (controller)."""
        self.execute(packet, actions, in_port)
