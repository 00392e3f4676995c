"""The SDN controller.

Provides the rule-installation API used by the traffic steering application
and a reactive L2-learning fallback for traffic that has no policy chain
(e.g. control messages between hosts).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.addresses import MACAddress
from repro.net.openflow import FlowAction, FlowEntry, FlowMatch
from repro.net.packet import Packet
from repro.net.switch import Switch
from repro.net.topology import Topology


@dataclass
class ControllerStats:
    """Plain counters container."""
    packet_ins: int = 0
    flow_mods: int = 0
    packet_outs: int = 0


class SDNController:
    """Logically centralized controller over every switch in a topology."""

    LEARNED_PRIORITY = 10

    def __init__(self, topology: Topology, learning: bool = True) -> None:
        self.topology = topology
        self.learning = learning
        self.stats = ControllerStats()
        # switch name -> {MAC -> port}
        self._mac_tables: dict[str, dict[MACAddress, int]] = {}
        self._applications: list = []
        for switch in topology.switches.values():
            switch.set_controller(self)
            self._mac_tables[switch.name] = {}

    def register_application(self, application) -> None:
        """Applications get first crack at packet-in events.

        An application exposes ``handle_packet_in(switch, packet, in_port)``
        returning True if it consumed the event.
        """
        self._applications.append(application)

    # --- southbound ---------------------------------------------------------

    def install(
        self,
        switch: Switch | str,
        match: FlowMatch,
        actions: list[FlowAction],
        priority: int = 100,
    ) -> FlowEntry:
        """Install a flow rule on *switch*."""
        if isinstance(switch, str):
            switch = self.topology.switches[switch]
        entry = FlowEntry(match=match, actions=actions, priority=priority)
        switch.flow_mod(entry)
        self.stats.flow_mods += 1
        return entry

    # --- packet-in handling ---------------------------------------------------

    def packet_in(self, switch: Switch, packet: Packet, in_port: int) -> None:
        """Table-miss entry point: applications first, then learning."""
        self.stats.packet_ins += 1
        for application in self._applications:
            if application.handle_packet_in(switch, packet, in_port):
                return
        if self.learning:
            self._learn_and_forward(switch, packet, in_port)

    def _learn_and_forward(self, switch: Switch, packet: Packet, in_port: int) -> None:
        """Classic L2-learning behaviour."""
        table = self._mac_tables[switch.name]
        table[packet.eth.src] = in_port
        out_port = table.get(packet.eth.dst)
        if out_port is None or packet.eth.dst.is_broadcast:
            switch.packet_out(packet, [FlowAction.flood()], in_port)
            self.stats.packet_outs += 1
            return
        # Install a forwarding rule for this destination, then release the
        # pending packet along the same port.
        self.install(
            switch,
            FlowMatch(eth_dst=packet.eth.dst),
            [FlowAction.output(out_port)],
            priority=self.LEARNED_PRIORITY,
        )
        switch.packet_out(packet, [FlowAction.output(out_port)], in_port)
        self.stats.packet_outs += 1
