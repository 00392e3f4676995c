"""Unit tests for the virtual scanner (Section 5.2 semantics)."""

import pytest

from repro.core.combined import CombinedAutomaton
from repro.core.patterns import Pattern
from repro.core.scanner import MiddleboxProfile, ScanResult, VirtualScanner


def make_scanner(
    stateful=(False, False),
    stopping=(None, None),
    chain=(0, 1),
):
    pattern_sets = {
        0: [Pattern(0, b"attack"), Pattern(1, b"evil")],
        1: [Pattern(0, b"virus"), Pattern(1, b"attack")],
    }
    automaton = CombinedAutomaton(pattern_sets)
    profiles = {
        0: MiddleboxProfile(0, name="ids", stateful=stateful[0], stopping_condition=stopping[0]),
        1: MiddleboxProfile(1, name="av", stateful=stateful[1], stopping_condition=stopping[1]),
    }
    return VirtualScanner(automaton, profiles, {100: chain})


class TestBasicScanning:
    def test_both_middleboxes_see_shared_pattern(self):
        scanner = make_scanner()
        result = scanner.scan_packet(b"an attack here", 100)
        assert (0, 9) in result.matches_for(0)  # "attack" is id 0 for mb 0
        assert (1, 9) in result.matches_for(1)  # ... and id 1 for mb 1

    def test_exclusive_patterns_go_to_owner_only(self):
        scanner = make_scanner()
        result = scanner.scan_packet(b"virus evil", 100)
        assert result.matches_for(0) == [(1, 10)]  # evil ends at 10
        assert result.matches_for(1) == [(0, 5)]  # virus ends at 5

    def test_unknown_chain_raises(self):
        scanner = make_scanner()
        with pytest.raises(KeyError, match="unknown policy chain"):
            scanner.scan_packet(b"x", 999)

    def test_no_matches(self):
        scanner = make_scanner()
        result = scanner.scan_packet(b"all quiet here", 100)
        assert not result.has_matches
        assert result.total_matches() == 0

    def test_chain_with_single_middlebox(self):
        scanner = make_scanner(chain=(1,))
        result = scanner.scan_packet(b"evil attack", 100)
        assert result.matches_for(0) == []
        assert (1, 11) in result.matches_for(1)
        # mb 0 is not on the chain: no entry at all for it.
        assert 0 not in result.matches

    def test_bytes_scanned(self):
        scanner = make_scanner()
        result = scanner.scan_packet(b"0123456789", 100)
        assert result.bytes_scanned == 10


class TestStatefulFlows:
    def test_cross_packet_match_for_stateful(self):
        scanner = make_scanner(stateful=(True, True))
        flow = "flow-1"
        first = scanner.scan_packet(b"xxatt", 100, flow_key=flow)
        assert not first.has_matches
        second = scanner.scan_packet(b"ack", 100, flow_key=flow)
        # Position is within the flow: 5 bytes in packet 1 + 3 in packet 2.
        assert (0, 8) in second.matches_for(0)
        assert (1, 8) in second.matches_for(1)

    def test_stateless_never_sees_cross_packet_match(self):
        # mb 0 stateless, mb 1 stateful on the same chain: the scan resumes
        # mid-DFA, but the stateless middlebox must not get the match.
        scanner = make_scanner(stateful=(False, True))
        flow = "flow-2"
        scanner.scan_packet(b"xxatt", 100, flow_key=flow)
        second = scanner.scan_packet(b"ack", 100, flow_key=flow)
        assert second.matches_for(0) == []
        assert (1, 8) in second.matches_for(1)

    def test_stateless_still_sees_within_packet_match_after_restore(self):
        scanner = make_scanner(stateful=(False, True))
        flow = "flow-3"
        scanner.scan_packet(b"xxatt", 100, flow_key=flow)
        second = scanner.scan_packet(b"ack evil", 100, flow_key=flow)
        # "evil" is fully inside packet 2: stateless mb 0 reports it at its
        # packet-relative position.
        assert (1, 8) in second.matches_for(0)

    def test_positions_relative_to_flow_for_stateful(self):
        scanner = make_scanner(stateful=(True, True))
        flow = "flow-4"
        scanner.scan_packet(b"0123456789", 100, flow_key=flow)
        second = scanner.scan_packet(b"virus", 100, flow_key=flow)
        assert (0, 15) in second.matches_for(1)

    def test_flows_are_isolated(self):
        scanner = make_scanner(stateful=(True, True))
        scanner.scan_packet(b"xxatt", 100, flow_key="a")
        other = scanner.scan_packet(b"ack", 100, flow_key="b")
        assert not other.has_matches

    def test_stateless_chain_keeps_no_flow_state(self):
        scanner = make_scanner(stateful=(False, False))
        scanner.scan_packet(b"xxatt", 100, flow_key="a")
        assert len(scanner.flow_table) == 0

    def test_stateful_chain_records_flow_state(self):
        scanner = make_scanner(stateful=(True, False))
        scanner.scan_packet(b"xxatt", 100, flow_key="a")
        assert len(scanner.flow_table) == 1
        entry = scanner.flow_table.lookup("a")
        assert entry.offset == 5


class TestStoppingConditions:
    def test_stateless_stop_prunes_deep_matches(self):
        scanner = make_scanner(stopping=(4, None))
        result = scanner.scan_packet(b"xxxevil", 100)
        # evil ends at 7 > stop 4 for mb 0; mb 1 doesn't own "evil".
        assert result.matches_for(0) == []

    def test_stateless_stop_keeps_shallow_matches(self):
        scanner = make_scanner(stopping=(10, None))
        result = scanner.scan_packet(b"xxevil", 100)
        assert (1, 6) in result.matches_for(0)

    def test_stateful_stop_is_flow_depth(self):
        scanner = make_scanner(stateful=(True, True), stopping=(None, 12))
        flow = "flow-5"
        scanner.scan_packet(b"0123456789", 100, flow_key=flow)
        result = scanner.scan_packet(b"attack", 100, flow_key=flow)
        # attack ends at flow position 16 > 12: pruned for mb 1.
        assert result.matches_for(1) == []
        # mb 0 (stateful, unbounded) sees it at flow position 16.
        assert (0, 16) in result.matches_for(0)

    def test_scan_stops_at_most_conservative_condition(self):
        # Both middleboxes bounded: the scan itself is truncated.
        scanner = make_scanner(stopping=(4, 6))
        result = scanner.scan_packet(b"0123456789attack", 100)
        assert result.bytes_scanned == 6

    def test_unbounded_middlebox_forces_full_scan(self):
        scanner = make_scanner(stopping=(4, None))
        result = scanner.scan_packet(b"0123456789attack", 100)
        assert result.bytes_scanned == 16

    def test_scan_limit_exhausted_stateful(self):
        scanner = make_scanner(stateful=(True, True), stopping=(5, 5))
        flow = "flow-6"
        scanner.scan_packet(b"01234", 100, flow_key=flow)
        result = scanner.scan_packet(b"56789", 100, flow_key=flow)
        assert result.bytes_scanned == 0


class TestChainManagement:
    def test_set_chain_adds_new_chain(self):
        scanner = make_scanner()
        scanner.set_chain(200, (0,))
        result = scanner.scan_packet(b"evil", 200)
        assert (1, 4) in result.matches_for(0)

    def test_set_chain_unknown_middlebox(self):
        scanner = make_scanner()
        with pytest.raises(KeyError):
            scanner.set_chain(200, (5,))

    def test_remove_chain(self):
        scanner = make_scanner()
        scanner.remove_chain(100)
        with pytest.raises(KeyError):
            scanner.scan_packet(b"x", 100)

    def test_chain_referencing_missing_profile_rejected(self):
        pattern_sets = {0: [Pattern(0, b"abcd")]}
        automaton = CombinedAutomaton(pattern_sets)
        profiles = {0: MiddleboxProfile(0)}
        with pytest.raises(KeyError):
            VirtualScanner(automaton, profiles, {1: (0, 9)})


class TestScanFlowHelper:
    def test_scan_flow_returns_per_packet_results(self):
        scanner = make_scanner(stateful=(True, True))
        results = scanner.scan_flow([b"xxatt", b"ack"], 100, flow_key="f")
        assert len(results) == 2
        assert not results[0].has_matches
        assert results[1].has_matches


class TestProfileValidation:
    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            MiddleboxProfile(-1)

    def test_nonpositive_stopping_rejected(self):
        with pytest.raises(ValueError):
            MiddleboxProfile(0, stopping_condition=0)

    def test_scan_result_defaults(self):
        result = ScanResult()
        assert not result.has_matches
        assert result.matches_for(3) == []


class TestChainPrecompute:
    def test_set_chain_installs_precomputed_chain_data(self):
        scanner = make_scanner(chain=(0,))
        scanner.set_chain(200, (0, 1))
        result = scanner.scan_packet(b"virus evil", 200)
        assert result.matches_for(1) == [(0, 5)]
        # Chain 100 keeps its original (0,)-only view.
        result = scanner.scan_packet(b"virus evil", 100)
        assert 1 not in result.matches

    def test_set_chain_replaces_existing_chain(self):
        scanner = make_scanner(chain=(0, 1))
        scanner.set_chain(100, (1,))
        result = scanner.scan_packet(b"evil virus", 100)
        assert 0 not in result.matches
        assert result.matches_for(1) == [(0, 10)]

    def test_remove_chain_drops_all_precomputed_state(self):
        scanner = make_scanner()
        scanner.remove_chain(100)
        with pytest.raises(KeyError, match="unknown policy chain"):
            scanner.scan_packet(b"x", 100)
        assert 100 not in scanner.chain_map

    def test_stateful_flag_tracks_chain_membership(self):
        scanner = make_scanner(stateful=(True, False), chain=(1,))
        # Chain holds only the stateless middlebox: no flow state kept.
        scanner.scan_packet(b"att", 100, flow_key="f")
        assert "f" not in scanner.flow_table
        scanner.set_chain(100, (0, 1))
        scanner.scan_packet(b"att", 100, flow_key="f")
        assert "f" in scanner.flow_table

    def test_select_kernel_passthrough(self):
        scanner = make_scanner()
        scanner.select_kernel("flat")
        assert scanner.automaton.kernel_name == "flat"
        result = scanner.scan_packet(b"an attack here", 100)
        assert (0, 9) in result.matches_for(0)
        with pytest.raises(ValueError):
            scanner.select_kernel("turbo")
