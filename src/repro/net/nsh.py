"""Result-passing encapsulations (paper Section 4.2).

Three ways to hand scan results to middleboxes are modeled:

* ``attach_nsh_results`` — an NSH/vPath-style metadata layer carried on the
  data packet itself (option 1);
* ``encode_tag_results`` — piggybacking small results as MPLS labels pushed
  onto the tag stack (option 2; the paper notes this gets messy, and so does
  this model: only a few records fit);
* ``build_result_packet`` — a dedicated result packet sent right after the
  marked data packet (option 3; what the paper's prototype and this repo's
  default mode use).
"""

from __future__ import annotations

from repro.core.reports import MatchReport
from repro.net.packet import (
    EthernetHeader,
    IPv4Header,
    MplsLabel,
    NSHContext,
    Packet,
    allocate_packet_id,
)

#: MPLS labels are 20 bits; results squeezed into tags lose information
#: beyond this many records (the "messy" downside the paper mentions).
MAX_TAG_RECORDS = 3
_TAG_RESULT_FLAG = 1 << 19


def attach_nsh_results(
    packet: Packet, report: MatchReport, service_path: int
) -> None:
    """Encapsulate *report* as NSH metadata on the data packet (option 1)."""
    packet.nsh = NSHContext(
        service_path=service_path,
        service_index=255,
        metadata=report.encode(),
    )
    packet.length_memo = None


def extract_nsh_results(packet: Packet) -> MatchReport | None:
    """Read NSH-carried results; None when the packet has no metadata."""
    if packet.nsh is None or not packet.nsh.metadata:
        return None
    return MatchReport.decode(packet.nsh.metadata)


def strip_nsh(packet: Packet) -> None:
    """Remove the metadata layer (done by the last DPI-aware middlebox so
    legacy hops and the destination see the original packet)."""
    packet.nsh = None
    packet.length_memo = None


def encode_tag_results(packet: Packet, report: MatchReport) -> int:
    """Push match records as MPLS labels (option 2).

    Each label encodes ``pattern_id`` (16 bits) + 3 bits of the middlebox id,
    with a flag bit marking it as a result label.  Returns how many records
    were actually encoded; the rest are silently dropped — which is exactly
    why the paper calls this option messy.
    """
    encoded = 0
    for middlebox_id in sorted(report.blocks):
        for pattern_id, _position, _run in report.blocks[middlebox_id]:
            if encoded >= MAX_TAG_RECORDS:
                return encoded
            label = (
                _TAG_RESULT_FLAG
                | ((middlebox_id & 0x7) << 16)
                | (pattern_id & 0xFFFF)
            )
            packet.push_mpls(MplsLabel(label=label, bottom_of_stack=False))
            encoded += 1
    return encoded


def decode_tag_results(packet: Packet) -> list[tuple[int, int]]:
    """Pop result labels; returns ``(middlebox id, pattern id)`` pairs."""
    results = []
    while packet.mpls_stack and packet.mpls_stack[-1].label & _TAG_RESULT_FLAG:
        label = packet.pop_mpls().label
        results.append(((label >> 16) & 0x7, label & 0xFFFF))
    results.reverse()
    return results


def build_directed_result_packet(
    data_packet: Packet, report: MatchReport, dst_mac, dst_ip
) -> Packet:
    """A result packet addressed straight to a middlebox host.

    Used by the read-only optimization (Section 4.2, option 3 / Big Tap
    style): the middlebox is *not* on the data path, so the report travels
    to it untagged and is delivered by plain host routing, while the data
    packet continues to its destination.
    """
    result = build_result_packet(data_packet, report)
    result.vlan_stack.clear()
    result.mpls_stack.clear()
    result.eth = EthernetHeader(src=data_packet.eth.src, dst=dst_mac)
    result.ip = IPv4Header(
        src=data_packet.ip.src,
        dst=dst_ip,
        protocol=data_packet.ip.protocol,
    )
    return result


def build_result_packet(data_packet: Packet, report: MatchReport) -> Packet:
    """A dedicated result packet (option 3): same headers and tag stack as
    the data packet — so it follows the same policy chain — but its payload
    is the encoded report and it names the packet it describes.

    The result packet never carries the match mark, so one built before the
    data packet is marked shares that packet's header as it is."""
    result = data_packet.copy()
    result.packet_id = allocate_packet_id()
    result.payload = report.encode()
    result.length_memo = None
    result.describes_packet_id = data_packet.packet_id
    result.clear_match_mark()
    return result
