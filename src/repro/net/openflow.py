"""OpenFlow-style flow tables: matches, actions and prioritized lookup.

This models the subset of OpenFlow 1.0-ish semantics the paper's steering
layer needs: exact/wildcard matching on in-port, Ethernet, VLAN, IP and L4
fields, plus actions to forward, flood, push/pop VLAN and MPLS tags, rewrite
the VLAN VID and send to the controller.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.net.addresses import IPv4Address, MACAddress
from repro.net.packet import MplsLabel, Packet, VlanTag

_entry_ids = itertools.count(1)


@dataclass(frozen=True)
class FlowMatch:
    """Wildcard match over packet fields; ``None`` fields match anything.

    ``vlan_vid`` matches the *outer* VLAN tag.  Use ``NO_VLAN`` to require the
    absence of any VLAN tag.
    """

    NO_VLAN = -1

    in_port: int | None = None
    eth_src: MACAddress | None = None
    eth_dst: MACAddress | None = None
    vlan_vid: int | None = None
    mpls_label: int | None = None
    ip_src: IPv4Address | None = None
    ip_dst: IPv4Address | None = None
    ip_proto: int | None = None
    src_port: int | None = None
    dst_port: int | None = None

    def matches(self, packet: Packet, in_port: int) -> bool:
        """True if *packet* arriving on *in_port* satisfies every field."""
        if self.in_port is not None and in_port != self.in_port:
            return False
        if self.eth_src is not None and packet.eth.src != self.eth_src:
            return False
        if self.eth_dst is not None and packet.eth.dst != self.eth_dst:
            return False
        if self.vlan_vid is not None:
            outer = packet.outer_vlan
            if self.vlan_vid == self.NO_VLAN:
                if outer is not None:
                    return False
            elif outer is None or outer.vid != self.vlan_vid:
                return False
        if self.mpls_label is not None:
            outer_mpls = packet.outer_mpls
            if outer_mpls is None or outer_mpls.label != self.mpls_label:
                return False
        if self.ip_src is not None and packet.ip.src != self.ip_src:
            return False
        if self.ip_dst is not None and packet.ip.dst != self.ip_dst:
            return False
        if self.ip_proto is not None and packet.ip.protocol != self.ip_proto:
            return False
        if self.src_port is not None and packet.l4.src_port != self.src_port:
            return False
        if self.dst_port is not None and packet.l4.dst_port != self.dst_port:
            return False
        return True


class ActionType(enum.Enum):
    """The action vocabulary supported by the simulated switch."""

    OUTPUT = "output"
    FLOOD = "flood"
    DROP = "drop"
    CONTROLLER = "controller"
    PUSH_VLAN = "push_vlan"
    POP_VLAN = "pop_vlan"
    SET_VLAN_VID = "set_vlan_vid"
    PUSH_MPLS = "push_mpls"
    POP_MPLS = "pop_mpls"


@dataclass(frozen=True)
class FlowAction:
    """A single action; ``argument`` meaning depends on the type.

    * ``OUTPUT``: argument is the out-port number.
    * ``PUSH_VLAN`` / ``SET_VLAN_VID``: argument is the VID.
    * ``PUSH_MPLS``: argument is the label.
    * others: argument unused.
    """

    type: ActionType
    argument: int | None = None

    @classmethod
    def output(cls, port: int) -> "FlowAction":
        """Forward out of a specific port."""
        return cls(ActionType.OUTPUT, port)

    @classmethod
    def flood(cls) -> "FlowAction":
        """Forward out of every port except the ingress."""
        return cls(ActionType.FLOOD)

    @classmethod
    def drop(cls) -> "FlowAction":
        """Discard the packet."""
        return cls(ActionType.DROP)

    @classmethod
    def controller(cls) -> "FlowAction":
        """Send to the SDN controller (packet-in)."""
        return cls(ActionType.CONTROLLER)

    @classmethod
    def push_vlan(cls, vid: int) -> "FlowAction":
        """Push a VLAN tag onto the stack."""
        return cls(ActionType.PUSH_VLAN, vid)

    @classmethod
    def pop_vlan(cls) -> "FlowAction":
        """Pop the outer VLAN tag; raises on an empty stack."""
        return cls(ActionType.POP_VLAN)

    @classmethod
    def set_vlan_vid(cls, vid: int) -> "FlowAction":
        """Rewrite the outer VLAN tag's VID."""
        return cls(ActionType.SET_VLAN_VID, vid)

    @classmethod
    def push_mpls(cls, label: int) -> "FlowAction":
        """Push an MPLS label onto the stack."""
        return cls(ActionType.PUSH_MPLS, label)

    @classmethod
    def pop_mpls(cls) -> "FlowAction":
        """Pop the outer MPLS label; raises on an empty stack."""
        return cls(ActionType.POP_MPLS)

    def apply(self, packet: Packet) -> None:
        """Apply a header-modifying action in place.  Forwarding actions
        (OUTPUT/FLOOD/DROP/CONTROLLER) are interpreted by the switch."""
        if self.type is ActionType.PUSH_VLAN:
            packet.push_vlan(VlanTag(vid=self.argument))
        elif self.type is ActionType.POP_VLAN:
            packet.pop_vlan()
        elif self.type is ActionType.SET_VLAN_VID:
            if not packet.vlan_stack:
                raise ValueError("SET_VLAN_VID on packet without VLAN tag")
            packet.vlan_stack[-1] = VlanTag(
                vid=self.argument, pcp=packet.vlan_stack[-1].pcp
            )
        elif self.type is ActionType.PUSH_MPLS:
            packet.push_mpls(MplsLabel(label=self.argument))
        elif self.type is ActionType.POP_MPLS:
            packet.pop_mpls()


@dataclass
class FlowEntry:
    """A prioritized (match, actions) rule."""

    match: FlowMatch
    actions: list[FlowAction]
    priority: int = 0
    entry_id: int = field(default_factory=lambda: next(_entry_ids))
    packets_matched: int = 0
    bytes_matched: int = 0


class FlowTable:
    """A prioritized flow table with highest-priority-first lookup.

    Within equal priorities, the earliest-installed entry wins, matching the
    behaviour of most switch implementations.
    """

    def __init__(self) -> None:
        self._entries: list[FlowEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def install(self, entry: FlowEntry) -> FlowEntry:
        """Insert *entry*, keeping the table sorted by descending priority."""
        index = 0
        while (
            index < len(self._entries)
            and self._entries[index].priority >= entry.priority
        ):
            index += 1
        self._entries.insert(index, entry)
        return entry

    def remove(self, entry_id: int) -> bool:
        """Remove the entry with *entry_id*; returns False if absent."""
        for index, entry in enumerate(self._entries):
            if entry.entry_id == entry_id:
                del self._entries[index]
                return True
        return False

    def lookup(self, packet: Packet, in_port: int) -> FlowEntry | None:
        """Highest-priority entry matching *packet*, updating its counters."""
        for entry in self._entries:
            if entry.match.matches(packet, in_port):
                entry.packets_matched += 1
                entry.bytes_matched += packet.hop_length()
                return entry
        return None
