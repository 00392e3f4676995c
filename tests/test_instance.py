"""Unit tests for the DPI service instance (Section 5)."""

import pytest

from repro.core.instance import (
    DPIServiceFunction,
    DPIServiceInstance,
    InstanceConfig,
)
from repro.core.patterns import Pattern, PatternKind
from repro.core.reports import MatchReport
from repro.core.scanner import MiddleboxProfile
from repro.net.addresses import IPv4Address, MACAddress
from repro.net.packet import VlanTag, make_tcp_packet


def make_config(stateful=False):
    return InstanceConfig(
        pattern_sets={
            1: [
                Pattern(0, b"attack"),
                Pattern(1, rb"regular\s*expression", kind=PatternKind.REGEX),
            ],
            2: [Pattern(0, b"virus123")],
        },
        profiles={
            1: MiddleboxProfile(1, name="ids", stateful=stateful),
            2: MiddleboxProfile(2, name="av", stateful=stateful),
        },
        chain_map={100: (1, 2), 101: (2,)},
    )


def make_packet(payload, vid=100):
    packet = make_tcp_packet(
        MACAddress.from_index(0),
        MACAddress.from_index(1),
        IPv4Address("10.0.0.1"),
        IPv4Address("10.0.0.2"),
        1234,
        80,
        payload=payload,
    )
    if vid is not None:
        packet.push_vlan(VlanTag(vid=vid))
    return packet


class TestInspection:
    def test_literal_match_reported(self):
        instance = DPIServiceInstance(make_config())
        output = instance.inspect(b"an attack comes", chain_id=100)
        assert output.matches[1] == [(0, 9)]
        assert output.has_matches
        assert not output.report.is_empty

    def test_regex_confirmed_and_reported(self):
        instance = DPIServiceInstance(make_config())
        output = instance.inspect(b"a regular  expression here", chain_id=100)
        pairs = output.matches[1]
        assert (1, 2 + len("regular  expression")) in pairs

    def test_anchor_ids_never_reported(self):
        instance = DPIServiceInstance(make_config())
        # Anchors present ("regular" without "expression" completing regex).
        output = instance.inspect(b"regular but nothing else", chain_id=100)
        for matches in output.matches.values():
            for pattern_id, _pos in matches:
                assert pattern_id < (1 << 20)

    def test_chain_selects_pattern_sets(self):
        instance = DPIServiceInstance(make_config())
        output = instance.inspect(b"attack and virus123", chain_id=101)
        # Chain 101 has only middlebox 2.
        assert 1 not in output.matches
        assert output.matches[2] == [(0, 19)]

    def test_no_matches_empty_report(self):
        instance = DPIServiceInstance(make_config())
        output = instance.inspect(b"benign payload", chain_id=100)
        assert not output.has_matches
        assert output.report.is_empty

    def test_report_encodes_per_middlebox(self):
        instance = DPIServiceInstance(make_config())
        output = instance.inspect(b"attack with virus123", chain_id=100)
        decoded = MatchReport.decode(output.report.encode())
        assert decoded.matches_for(1) == [(0, 6)]
        assert decoded.matches_for(2) == [(0, 20)]

    def test_telemetry_counters(self):
        instance = DPIServiceInstance(make_config())
        instance.inspect(b"attack", chain_id=100)
        instance.inspect(b"quiet", chain_id=100)
        telemetry = instance.telemetry
        assert telemetry.packets_scanned == 2
        assert telemetry.bytes_scanned == 11
        assert telemetry.packets_with_matches == 1
        assert telemetry.scan_seconds > 0

    def test_stateful_cross_packet(self):
        instance = DPIServiceInstance(make_config(stateful=True))
        instance.inspect(b"att", chain_id=100, flow_key="f")
        output = instance.inspect(b"ack", chain_id=100, flow_key="f")
        assert (0, 6) in output.matches[1]

    def test_heavy_flows_ranked(self):
        instance = DPIServiceInstance(make_config(stateful=True))
        instance.inspect(b"x" * 2000, chain_id=100, flow_key="big")
        instance.inspect(b"y" * 10, chain_id=100, flow_key="small")
        heavy = instance.heavy_flows(top=1)
        assert heavy[0][0] == "big"

    @pytest.mark.parametrize("stateful", [True, False])
    def test_drop_flow_forgets_the_flow_work(self, stateful):
        """A stateless chain's flows have work entries and no flow-table
        entry; dropping every flow seen must leave neither behind."""
        instance = DPIServiceInstance(make_config(stateful=stateful))
        flows = [f"f{index}" for index in range(6)]
        for flow in flows:
            instance.inspect(b"x" * 200, chain_id=100, flow_key=flow)
        assert set(instance.telemetry.flow_work) == set(flows)
        instance.drop_flow("f1")
        assert "f1" not in [key for key, _ in instance.heavy_flows(top=6)]
        assert instance.export_flow("f1") is None
        for flow in flows:
            instance.drop_flow(flow)  # "f1" again: dropping twice is harmless
        assert instance.telemetry.flow_work == {}
        assert len(instance.scanner.flow_table) == 0

    def test_reconfigure_rebuilds(self):
        instance = DPIServiceInstance(make_config())
        new_config = InstanceConfig(
            pattern_sets={1: [Pattern(0, b"fresh")]},
            profiles={1: MiddleboxProfile(1, name="ids")},
            chain_map={100: (1,)},
        )
        instance.reconfigure(new_config)
        output = instance.inspect(b"a fresh start", chain_id=100)
        assert output.matches[1] == [(0, 7)]

    def test_config_requires_profiles(self):
        with pytest.raises(KeyError):
            InstanceConfig(
                pattern_sets={1: [Pattern(0, b"x")]},
                profiles={},
                chain_map={},
            )


class TestServiceFunction:
    def _function(self, mode="result_packet"):
        instance = DPIServiceInstance(make_config())
        function = DPIServiceFunction(instance, result_mode=mode)
        return instance, function

    def test_matchless_packet_forwarded_unmodified(self):
        _, function = self._function()
        packet = make_packet(b"all quiet")
        out = function.process(packet)
        assert out == [packet]
        assert not packet.is_marked_matched

    def test_matched_packet_marked_and_result_appended(self):
        _, function = self._function()
        packet = make_packet(b"attack happening")
        out = function.process(packet)
        assert len(out) == 2
        data, result = out
        assert data is packet
        assert data.is_marked_matched
        assert result.is_result_packet
        assert result.describes_packet_id == packet.packet_id
        decoded = MatchReport.decode(result.payload)
        assert decoded.matches_for(1) == [(0, 6)]

    def test_result_packet_follows_chain_tag(self):
        _, function = self._function()
        packet = make_packet(b"attack")
        _, result = function.process(packet)
        assert result.outer_vlan.vid == 100

    def test_untagged_packet_passes_through(self):
        instance, function = self._function()
        packet = make_packet(b"attack", vid=None)
        assert function.process(packet) == [packet]
        assert instance.telemetry.packets_scanned == 0

    def test_unknown_chain_passes_through(self):
        instance, function = self._function()
        packet = make_packet(b"attack", vid=999)
        assert function.process(packet) == [packet]
        assert function.packets_skipped == 1

    def test_result_packets_pass_through(self):
        _, function = self._function()
        packet = make_packet(b"attack")
        packet.describes_packet_id = 123
        assert function.process(packet) == [packet]

    def test_nsh_mode_attaches_metadata(self):
        _, function = self._function(mode="nsh")
        packet = make_packet(b"attack")
        out = function.process(packet)
        assert out == [packet]
        assert packet.nsh is not None
        decoded = MatchReport.decode(packet.nsh.metadata)
        assert decoded.matches_for(1) == [(0, 6)]

    def test_tags_mode_pushes_labels(self):
        _, function = self._function(mode="tags")
        packet = make_packet(b"attack")
        function.process(packet)
        assert packet.mpls_stack

    def test_unknown_mode_rejected(self):
        instance = DPIServiceInstance(make_config())
        with pytest.raises(ValueError):
            DPIServiceFunction(instance, result_mode="pigeon")


class TestRegexMatchDedup:
    """A regex can register both anchors and a fallback expression; the
    two resolution paths must not double-report the same match."""

    def _instance(self):
        config = InstanceConfig(
            pattern_sets={
                1: [
                    # Anchored: "alphanum" is a >=4 byte literal anchor.
                    Pattern(5, rb"alphanum\d*", kind=PatternKind.REGEX),
                    # Same pattern id, no usable anchor -> fallback list.
                    Pattern(5, rb"[a-z]+\d*", kind=PatternKind.REGEX),
                ],
            },
            profiles={1: MiddleboxProfile(1, name="ids")},
            chain_map={100: (1,)},
        )
        return DPIServiceInstance(config)

    def test_same_match_reported_once(self):
        instance = self._instance()
        output = instance.inspect(b"alphanum77", chain_id=100)
        assert output.matches[1].count((5, 10)) == 1

    def test_distinct_matches_survive_dedup(self):
        instance = self._instance()
        output = instance.inspect(b"alphanum77 xyz9", chain_id=100)
        positions = sorted(output.matches[1])
        assert (5, 10) in positions and (5, 15) in positions
        assert len(positions) == len(set(positions))


class TestInspectionAPISurface:
    """The keyword-only inspection contract."""

    def test_missing_chain_id_raises(self):
        instance = DPIServiceInstance(make_config())
        with pytest.raises(TypeError, match="chain_id"):
            instance.inspect(b"x")

    def test_too_many_positionals_raises(self):
        # Only the payload is positional; there is no legacy shim.
        instance = DPIServiceInstance(make_config())
        with pytest.raises(TypeError, match="positional"):
            instance.inspect(b"x", 100)
        with pytest.raises(TypeError, match="positional"):
            instance.inspect(b"x", 100, chain_id=100)
