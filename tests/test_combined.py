"""Unit tests for the combined virtual-DPI automaton (Section 5.1)."""

import pytest

from repro.core.combined import CombinedAutomaton
from repro.core.patterns import Pattern, PatternKind
from tests.conftest import PAPER_SET_0, PAPER_SET_1, PrivateOracle

#: Layouts of the private Aho-Corasick automata each combined automaton is
#: checked against (the combined automaton itself has one build).
LAYOUTS = ["sparse", "full"]


def build(pattern_sets, layout):
    """The combined automaton and its per-middlebox oracle in *layout*."""
    automaton = CombinedAutomaton(pattern_sets)
    return automaton, PrivateOracle(automaton, pattern_sets, layout)


def checked_scan(automaton, oracle, data, active_bitmap=None, state=None, limit=None):
    """One scan, asserted equal to what the private automata find."""
    result = automaton.scan(data, active_bitmap, state, limit)
    oracle.check(result, data, active_bitmap, state, limit)
    return result


def _resolve_all(automaton, result):
    """Expand raw (state, cnt) matches to ((mb, pid), cnt) triples."""
    expanded = []
    for state, cnt in result.raw_matches:
        for pair in automaton.match_entry(state):
            expanded.append((pair, cnt))
    return sorted(expanded)


@pytest.mark.parametrize("layout", LAYOUTS)
class TestPaperExample:
    """The paper's Figure 7 construction for P0 and P1."""

    def test_nine_accepting_states(self, paper_pattern_sets, layout):
        automaton, oracle = build(paper_pattern_sets, layout)
        # 10 patterns, "BE" shared -> 9 distinct patterns, each with its own
        # accepting state and no extra suffix-only accepting states here.
        assert automaton.num_distinct_patterns == 9
        assert automaton.num_accepting == 9
        states = range(automaton.num_states)
        assert sum(bool(oracle.accepting_bitmap(s)) for s in states) == 9

    def test_accepting_states_are_low_ids(self, paper_pattern_sets, layout):
        automaton, oracle = build(paper_pattern_sets, layout)
        # The paper's trick: accept test is `state < f`.
        for state in range(automaton.num_states):
            entry_exists = state < automaton.num_accepting
            assert automaton.is_accepting(state) == entry_exists
            assert entry_exists == bool(oracle.accepting_bitmap(state))

    def test_shared_pattern_has_both_referrers(self, paper_pattern_sets, layout):
        automaton, oracle = build(paper_pattern_sets, layout)
        result = checked_scan(automaton, oracle, b"BE")
        # One accepting state is reached (at position 2); its match entry
        # carries BE for both middleboxes plus the suffix pattern E.
        assert len(result.raw_matches) == 1
        entries = [
            automaton.match_entry(state) for state, _cnt in result.raw_matches
        ]
        flattened = {pair for entry in entries for pair in entry}
        # BE is pattern 1 in both sets; E is pattern 0 of set 0 only.
        assert (0, 1) in flattened
        assert (1, 1) in flattened
        assert (0, 0) in flattened

    def test_bitmaps_reflect_referrers(self, paper_pattern_sets, layout):
        automaton, oracle = build(paper_pattern_sets, layout)
        for state in range(automaton.num_accepting):
            bitmap = automaton.bitmap_of_state(state)
            expected = 0
            for middlebox_id, _pid in automaton.match_entry(state):
                expected |= 1 << middlebox_id
            assert bitmap == expected
            assert bitmap == oracle.accepting_bitmap(state)

    def test_scan_positions(self, paper_pattern_sets, layout):
        automaton, oracle = build(paper_pattern_sets, layout)
        result = checked_scan(automaton, oracle, b"XCDBCABX")
        matched = _resolve_all(automaton, result)
        # CDBCAB (set 0, id 5) ends at position 7.
        assert ((0, 5), 7) in matched

    def test_match_equivalence_with_private_automata(
        self, paper_pattern_sets, layout
    ):
        """Core invariant: the merged DFA reports, per middlebox, exactly
        what that middlebox's private DFA reports."""
        from repro.core.aho_corasick import AhoCorasick

        automaton = CombinedAutomaton(paper_pattern_sets)
        text = b"ABEDAECDBCABCDBCAACBDXBE"
        result = automaton.scan(text)
        merged: dict = {0: set(), 1: set()}
        for state, cnt in result.raw_matches:
            for middlebox_id, pattern_id in automaton.match_entry(state):
                merged[middlebox_id].add((cnt, pattern_id))
        for middlebox_id, patterns in paper_pattern_sets.items():
            private = AhoCorasick([p.data for p in patterns], layout=layout)
            expected = set(private.scan(text)[0])
            assert merged[middlebox_id] == expected, f"middlebox {middlebox_id}"


@pytest.mark.parametrize("layout", LAYOUTS)
class TestActiveBitmapFiltering:
    def test_only_active_middleboxes_reported(self, paper_pattern_sets, layout):
        automaton, oracle = build(paper_pattern_sets, layout)
        only_1 = automaton.bitmask_of([1])
        result = checked_scan(automaton, oracle, b"ABEDAE", active_bitmap=only_1)
        for state, _cnt in result.raw_matches:
            assert automaton.bitmap_of_state(state) & only_1
        resolved = {
            pair
            for state, _ in result.raw_matches
            for pair, _length in automaton.resolve(state, only_1)
        }
        assert all(middlebox_id == 1 for middlebox_id, _ in resolved)
        # EDAE and BE belong to middlebox 1.
        assert (1, 0) in resolved
        assert (1, 1) in resolved

    def test_zero_bitmap_reports_nothing(self, paper_pattern_sets, layout):
        automaton, oracle = build(paper_pattern_sets, layout)
        result = checked_scan(automaton, oracle, b"ABEDAECDBCAB", active_bitmap=0)
        assert result.raw_matches == []

    def test_bitmask_of_unknown_middlebox(self, paper_pattern_sets, layout):
        automaton, oracle = build(paper_pattern_sets, layout)
        with pytest.raises(KeyError):
            automaton.bitmask_of([7])
        known = automaton.bitmask_of(oracle.private)
        assert known == automaton.all_middleboxes_bitmap


@pytest.mark.parametrize("layout", LAYOUTS)
class TestScanControls:
    def test_limit_truncates_scan(self, paper_pattern_sets, layout):
        automaton, oracle = build(paper_pattern_sets, layout)
        result = checked_scan(automaton, oracle, b"XXXXXBE", limit=5)
        assert result.bytes_scanned == 5
        assert result.raw_matches == []

    def test_resume_from_state(self, paper_pattern_sets, layout):
        automaton, oracle = build(paper_pattern_sets, layout)
        first = checked_scan(automaton, oracle, b"CDBC")
        second = checked_scan(automaton, oracle, b"AB", state=first.end_state)
        matched = _resolve_all(automaton, second)
        assert ((0, 5), 2) in matched  # CDBCAB completes 2 bytes in

    def test_suffix_closure_in_match_entry(self, layout):
        sets = {
            0: [Pattern(0, b"DEF")],
            1: [Pattern(0, b"ABCDEF")],
        }
        automaton, oracle = build(sets, layout)
        result = checked_scan(automaton, oracle, b"ABCDEF")
        all_pairs = {
            pair for state, _ in result.raw_matches
            for pair in automaton.match_entry(state)
        }
        assert (0, 0) in all_pairs and (1, 0) in all_pairs
        # The ABCDEF accepting state's entry contains the suffix DEF too.
        deep_state = [
            s for s, _ in result.raw_matches if len(automaton.match_entry(s)) == 2
        ]
        assert deep_state, "expected a state carrying both patterns"


class TestConstructionErrors:
    def test_regex_pattern_rejected(self):
        sets = {0: [Pattern(0, b"a+b", kind=PatternKind.REGEX)]}
        with pytest.raises(ValueError, match="literal patterns only"):
            CombinedAutomaton(sets)

    def test_negative_middlebox_id_rejected(self):
        with pytest.raises(ValueError):
            CombinedAutomaton({-1: [Pattern(0, b"abcd")]})

    def test_stats_reported(self, paper_pattern_sets):
        automaton = CombinedAutomaton(paper_pattern_sets)
        stats = automaton.stats
        assert stats.num_patterns == 9
        assert stats.num_accepting_states == 9
        assert stats.memory_bytes > 0

    def test_all_middleboxes_bitmap(self, paper_pattern_sets):
        automaton = CombinedAutomaton(paper_pattern_sets)
        assert automaton.all_middleboxes_bitmap == 0b11
