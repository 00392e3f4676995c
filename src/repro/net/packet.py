"""Packet model for the simulated data plane.

A :class:`Packet` carries an Ethernet header, an optional stack of VLAN/MPLS
tags (used by the traffic steering application for policy-chain
identification, Section 4.1 of the paper), an IPv4 header whose ECN field is
reused by the DPI service as the "has matches" mark (Section 6.1), an L4
header, an optional NSH-style metadata context (Section 4.2, option 1), and a
payload.

Payloads are ``bytes``.  Headers may be rewritten by middleboxes (e.g. NAT),
but the payload is treated as immutable along the chain — the property the
paper relies on to scan once and reuse the results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.net.addresses import IPv4Address, MACAddress

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_VLAN = 0x8100
ETHERTYPE_MPLS = 0x8847
ETHERTYPE_NSH = 0x894F

PROTO_TCP = 6
PROTO_UDP = 17

_packet_ids = itertools.count(1)


def allocate_packet_id() -> int:
    """Allocate a globally unique packet id (used when synthesizing packets
    that are not built through the :class:`Packet` constructor defaults)."""
    return next(_packet_ids)


@dataclass(frozen=True)
class EthernetHeader:
    """Ethernet II header (14 bytes on the wire)."""

    src: MACAddress
    dst: MACAddress
    ethertype: int = ETHERTYPE_IPV4

    WIRE_LENGTH = 14


@dataclass(frozen=True)
class VlanTag:
    """An 802.1Q tag (4 bytes); ``vid`` carries the policy-chain identifier."""

    vid: int
    pcp: int = 0

    WIRE_LENGTH = 4

    def __post_init__(self) -> None:
        if not 0 <= self.vid < 4096:
            raise ValueError(f"VLAN VID out of range: {self.vid}")
        if not 0 <= self.pcp < 8:
            raise ValueError(f"VLAN PCP out of range: {self.pcp}")


@dataclass(frozen=True)
class MplsLabel:
    """An MPLS label stack entry (4 bytes)."""

    label: int
    tc: int = 0
    bottom_of_stack: bool = True

    WIRE_LENGTH = 4

    def __post_init__(self) -> None:
        if not 0 <= self.label < (1 << 20):
            raise ValueError(f"MPLS label out of range: {self.label}")


@dataclass(frozen=True)
class IPv4Header:
    """IPv4 header (20 bytes, no options).

    ``ecn`` is reused by the DPI service instance as the match mark: a packet
    whose payload matched at least one pattern has ``ecn != 0`` so that
    middleboxes know a result packet follows (paper Section 6.1).
    """

    src: IPv4Address
    dst: IPv4Address
    protocol: int = PROTO_TCP
    ttl: int = 64
    ecn: int = 0
    dscp: int = 0

    WIRE_LENGTH = 20

    def __post_init__(self) -> None:
        if not 0 <= self.ecn < 4:
            raise ValueError(f"ECN out of range: {self.ecn}")
        if not 0 <= self.ttl < 256:
            raise ValueError(f"TTL out of range: {self.ttl}")


@dataclass(frozen=True)
class TCPHeader:
    """TCP header (20 bytes, no options)."""

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: int = 0

    WIRE_LENGTH = 20

    def __post_init__(self) -> None:
        for port in (self.src_port, self.dst_port):
            if not 0 <= port < 65536:
                raise ValueError(f"TCP port out of range: {port}")


@dataclass(frozen=True)
class UDPHeader:
    """UDP header (8 bytes)."""

    src_port: int
    dst_port: int

    WIRE_LENGTH = 8

    def __post_init__(self) -> None:
        for port in (self.src_port, self.dst_port):
            if not 0 <= port < 65536:
                raise ValueError(f"UDP port out of range: {port}")


@dataclass(frozen=True)
class NSHContext:
    """NSH-style service-chain metadata (paper Section 4.2, option 1).

    ``service_path`` identifies the policy chain; ``metadata`` carries the
    encoded DPI match report so downstream middleboxes can read the scan
    results without rescanning the payload.
    """

    service_path: int
    service_index: int = 255
    metadata: bytes = b""

    BASE_WIRE_LENGTH = 8

    @property
    def wire_length(self) -> int:
        """Total bytes on the wire, headers included."""
        return self.BASE_WIRE_LENGTH + len(self.metadata)


@dataclass(slots=True)
class Packet:
    """A simulated packet.

    The dataclass is mutable so that switches can push/pop tags and the DPI
    service can set the ECN mark, mirroring OpenFlow actions; the *payload*
    however must never be mutated in place (middleboxes rely on it being
    identical at every hop).
    """

    eth: EthernetHeader
    ip: IPv4Header
    l4: TCPHeader | UDPHeader
    payload: bytes = b""
    vlan_stack: list[VlanTag] = field(default_factory=list)
    mpls_stack: list[MplsLabel] = field(default_factory=list)
    nsh: NSHContext | None = None
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    # Set on DPI result packets: the id of the data packet they describe.
    describes_packet_id: int | None = None
    # Telemetry trace context, a (trace id, span id) tuple stamped by the
    # origin host.  Copies and result packets inherit it so one trace
    # follows the packet end-to-end; excluded from equality.
    trace: tuple | None = field(default=None, compare=False, repr=False)
    # ``wire_length`` as the data path last computed it (see
    # :meth:`hop_length`).  Whatever changes the length — a tag stack, the
    # NSH layer, the payload — resets it to None.
    length_memo: int | None = field(
        default=None, init=False, compare=False, repr=False
    )

    @property
    def is_result_packet(self) -> bool:
        """True for dedicated match-report packets (Section 4.2, option 3)."""
        return self.describes_packet_id is not None

    @property
    def wire_length(self) -> int:
        """Total bytes this packet occupies on the wire."""
        length = (
            self.eth.WIRE_LENGTH
            + self.ip.WIRE_LENGTH
            + self.l4.WIRE_LENGTH
            + len(self.payload)
        )
        length += VlanTag.WIRE_LENGTH * len(self.vlan_stack)
        length += MplsLabel.WIRE_LENGTH * len(self.mpls_stack)
        if self.nsh is not None:
            length += self.nsh.wire_length
        return length

    def hop_length(self) -> int:
        """``wire_length``, memoized until the length changes, so the switch
        table, the link and the host counters along a hop share one count."""
        length = self.length_memo
        if length is None:
            length = self.length_memo = self.wire_length
        return length

    # --- tag manipulation (OpenFlow push/pop actions) -------------------

    def push_vlan(self, tag: VlanTag) -> None:
        """Push a VLAN tag onto the stack."""
        self.vlan_stack.append(tag)
        self.length_memo = None

    def pop_vlan(self) -> VlanTag:
        """Pop the outer VLAN tag; raises on an empty stack."""
        if not self.vlan_stack:
            raise IndexError("pop from empty VLAN stack")
        self.length_memo = None
        return self.vlan_stack.pop()

    @property
    def outer_vlan(self) -> VlanTag | None:
        """The outermost VLAN tag, or None."""
        return self.vlan_stack[-1] if self.vlan_stack else None

    def push_mpls(self, label: MplsLabel) -> None:
        """Push an MPLS label onto the stack."""
        self.mpls_stack.append(label)
        self.length_memo = None

    def pop_mpls(self) -> MplsLabel:
        """Pop the outer MPLS label; raises on an empty stack."""
        if not self.mpls_stack:
            raise IndexError("pop from empty MPLS stack")
        self.length_memo = None
        return self.mpls_stack.pop()

    @property
    def outer_mpls(self) -> MplsLabel | None:
        """The outermost MPLS label, or None."""
        return self.mpls_stack[-1] if self.mpls_stack else None

    # --- DPI match marking ----------------------------------------------

    def mark_matched(self) -> None:
        """Set the ECN-based "payload had matches" mark (Section 6.1)."""
        self._set_ecn(1)

    def clear_match_mark(self) -> None:
        """Clear the ECN-based match mark."""
        self._set_ecn(0)

    def _set_ecn(self, ecn: int) -> None:
        ip = self.ip
        if ip.ecn != ecn:
            self.ip = IPv4Header(ip.src, ip.dst, ip.protocol, ip.ttl, ecn, ip.dscp)

    @property
    def is_marked_matched(self) -> bool:
        """True when the DPI service marked this packet as matched."""
        return self.ip.ecn != 0

    # --- misc -------------------------------------------------------------

    def copy(self) -> "Packet":
        """A deep-enough copy: header stacks are copied, payload is shared."""
        clone = Packet(
            self.eth, self.ip, self.l4, self.payload,
            self.vlan_stack.copy(), self.mpls_stack.copy(), self.nsh,
            self.packet_id, self.describes_packet_id, self.trace,
        )
        clone.length_memo = self.length_memo
        return clone

    def __repr__(self) -> str:
        kind = "result" if self.is_result_packet else "data"
        return (
            f"<Packet #{self.packet_id} {kind} {self.ip.src}:{self.l4.src_port}"
            f" -> {self.ip.dst}:{self.l4.dst_port} len={self.wire_length}>"
        )


def make_tcp_packet(
    src_mac: MACAddress,
    dst_mac: MACAddress,
    src_ip: IPv4Address,
    dst_ip: IPv4Address,
    src_port: int,
    dst_port: int,
    payload: bytes = b"",
    seq: int = 0,
) -> Packet:
    """Convenience constructor for a plain TCP data packet."""
    return Packet(
        eth=EthernetHeader(src=src_mac, dst=dst_mac),
        ip=IPv4Header(src=src_ip, dst=dst_ip, protocol=PROTO_TCP),
        l4=TCPHeader(src_port=src_port, dst_port=dst_port, seq=seq),
        payload=payload,
    )


def make_udp_packet(
    src_mac: MACAddress,
    dst_mac: MACAddress,
    src_ip: IPv4Address,
    dst_ip: IPv4Address,
    src_port: int,
    dst_port: int,
    payload: bytes = b"",
) -> Packet:
    """Convenience constructor for a plain UDP data packet."""
    return Packet(
        eth=EthernetHeader(src=src_mac, dst=dst_mac),
        ip=IPv4Header(src=src_ip, dst=dst_ip, protocol=PROTO_UDP),
        l4=UDPHeader(src_port=src_port, dst_port=dst_port),
        payload=payload,
    )
