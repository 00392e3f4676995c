"""Firewalls.

* :class:`L2L4Firewall` — the header-only firewall from the paper's policy
  chains (Figure 5's ``L2-L4 FW``).  It performs **no DPI** and therefore
  does not register with the DPI service; it filters on addresses, protocol
  and ports.
* :class:`L7Firewall` — an application-layer firewall (ModSecurity/L7-filter
  style) whose rules match payload patterns via the DPI service.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.middleboxes.base import Action, DPIServiceMiddlebox, MiddleboxStats
from repro.net.addresses import IPv4Address
from repro.net.host import NetworkFunction
from repro.net.packet import Packet


@dataclass(frozen=True)
class AclEntry:
    """One L3/L4 access-control entry; None fields are wildcards."""

    action: Action
    src_ip: IPv4Address | None = None
    dst_ip: IPv4Address | None = None
    protocol: int | None = None
    src_port: int | None = None
    dst_port: int | None = None

    def matches(self, packet: Packet) -> bool:
        """True if the packet satisfies every non-wildcard field."""
        if self.src_ip is not None and packet.ip.src != self.src_ip:
            return False
        if self.dst_ip is not None and packet.ip.dst != self.dst_ip:
            return False
        if self.protocol is not None and packet.ip.protocol != self.protocol:
            return False
        if self.src_port is not None and packet.l4.src_port != self.src_port:
            return False
        if self.dst_port is not None and packet.l4.dst_port != self.dst_port:
            return False
        return True


class L2L4Firewall:
    """First-match ACL firewall over packet headers; no DPI involved."""

    TYPE_NAME = "l2l4_fw"

    def __init__(self, default_action: Action = Action.FORWARD) -> None:
        self.entries: list[AclEntry] = []
        self.default_action = default_action
        self.stats = MiddleboxStats()

    def add_entry(self, entry: AclEntry) -> None:
        """Append an ACL entry (first match wins)."""
        self.entries.append(entry)

    def decide(self, packet: Packet) -> Action:
        """The verdict for one packet."""
        self.stats.packets_processed += 1
        for entry in self.entries:
            if entry.matches(packet):
                if entry.action is Action.DROP:
                    self.stats.packets_dropped += 1
                return entry.action
        if self.default_action is Action.DROP:
            self.stats.packets_dropped += 1
        return self.default_action


class L2L4FirewallFunction(NetworkFunction):
    """Adapter for a header firewall on a simulated chain."""

    def __init__(self, firewall: L2L4Firewall) -> None:
        self.firewall = firewall

    def process(self, packet: Packet) -> list[Packet]:
        """Handle one received packet; return the packets to send on."""
        if packet.is_result_packet:
            return [packet]
        verdict = self.firewall.decide(packet)
        return [] if verdict is Action.DROP else [packet]


class L7Firewall(DPIServiceMiddlebox):
    """Application-layer firewall: payload patterns decide the verdict."""

    TYPE_NAME = "l7_fw"
    READ_ONLY = False
    STATEFUL = False
    #: L7 firewalls typically decide on application headers near the start
    #: of the payload; the paper's stopping condition models exactly this.
    STOPPING_CONDITION = 2048

    def add_block_pattern(
        self, rule_id: int, literal: bytes, description: str = ""
    ) -> None:
        """A DROP rule for a payload literal."""
        self.add_literal_rule(
            rule_id, literal, action=Action.DROP, description=description
        )
