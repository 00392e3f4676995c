"""Unit tests for the three result-passing modes (Section 4.2)."""

from repro.core.reports import MatchReport
from repro.net.addresses import IPv4Address, MACAddress
from repro.net.nsh import (
    MAX_TAG_RECORDS,
    attach_nsh_results,
    build_result_packet,
    decode_tag_results,
    encode_tag_results,
    extract_nsh_results,
    strip_nsh,
)
from repro.net.packet import VlanTag, make_tcp_packet


def make_packet(payload=b"data"):
    packet = make_tcp_packet(
        MACAddress.from_index(0),
        MACAddress.from_index(1),
        IPv4Address("10.0.0.1"),
        IPv4Address("10.0.0.2"),
        5555,
        80,
        payload=payload,
    )
    packet.push_vlan(VlanTag(vid=100))
    return packet


def sample_report(matches=None):
    return MatchReport.from_matches(matches or {1: [(0, 4)], 2: [(3, 9)]})


class TestNSHMode:
    def test_attach_and_extract(self):
        packet = make_packet()
        report = sample_report()
        attach_nsh_results(packet, report, service_path=100)
        restored = extract_nsh_results(packet)
        assert restored.matches_for(1) == [(0, 4)]
        assert restored.matches_for(2) == [(3, 9)]
        assert packet.nsh.service_path == 100

    def test_extract_without_nsh(self):
        assert extract_nsh_results(make_packet()) is None

    def test_strip_restores_original(self):
        packet = make_packet()
        attach_nsh_results(packet, sample_report(), service_path=1)
        length_with = packet.wire_length
        strip_nsh(packet)
        assert packet.nsh is None
        assert packet.wire_length < length_with

    def test_attach_and_strip_reset_the_length_memo(self, checked_length_memo):
        packet = make_packet()
        bare = packet.hop_length()
        attach_nsh_results(packet, sample_report(), service_path=1)
        assert packet.hop_length() > bare
        strip_nsh(packet)
        assert packet.hop_length() == bare


class TestTagMode:
    def test_round_trip_small_report(self):
        packet = make_packet()
        encoded = encode_tag_results(packet, sample_report())
        assert encoded == 2
        assert decode_tag_results(packet) == [(1, 0), (2, 3)]
        # Result labels removed; the chain tag remains.
        assert packet.outer_vlan.vid == 100
        assert packet.mpls_stack == []

    def test_overflow_drops_records(self):
        packet = make_packet()
        big = MatchReport.from_matches(
            {1: [(i, 10 * (i + 1)) for i in range(10)]}
        )
        encoded = encode_tag_results(packet, big)
        assert encoded == MAX_TAG_RECORDS

    def test_decode_on_clean_packet(self):
        assert decode_tag_results(make_packet()) == []


class TestResultPacketMode:
    def test_result_packet_structure(self):
        packet = make_packet(b"original-payload")
        packet.mark_matched()
        report = sample_report()
        result = build_result_packet(packet, report)
        assert result.is_result_packet
        assert result.describes_packet_id == packet.packet_id
        assert result.packet_id != packet.packet_id
        assert not result.is_marked_matched
        decoded = MatchReport.decode(result.payload)
        assert decoded.matches_for(1) == [(0, 4)]

    def test_result_packet_follows_same_chain(self):
        packet = make_packet()
        result = build_result_packet(packet, sample_report())
        assert result.outer_vlan.vid == packet.outer_vlan.vid
        assert result.ip.dst == packet.ip.dst

    def test_result_packet_tag_stack_independent(self):
        packet = make_packet()
        result = build_result_packet(packet, sample_report())
        result.pop_vlan()
        assert packet.outer_vlan is not None
