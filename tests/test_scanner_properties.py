"""Property tests for the virtual scanner's flow semantics (Section 5.2)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.combined import CombinedAutomaton
from repro.core.kernels import KERNEL_NAMES
from repro.core.patterns import Pattern
from repro.core.scanner import MiddleboxProfile, VirtualScanner

CHAIN = 1


def _to_bytes(raw):
    return bytes(b % 3 + 0x41 for b in raw)


pattern = st.binary(min_size=1, max_size=5).map(_to_bytes)
pattern_list = st.lists(pattern, min_size=1, max_size=6, unique=True)
stream_strategy = st.binary(min_size=0, max_size=60).map(_to_bytes)
cut_list = st.lists(st.integers(min_value=1, max_value=59), max_size=6)


def make_scanner(patterns, stateful):
    automaton = CombinedAutomaton(
        {0: [Pattern(i, p) for i, p in enumerate(patterns)]}
    )
    profiles = {0: MiddleboxProfile(0, stateful=stateful)}
    return VirtualScanner(automaton, profiles, {CHAIN: (0,)})


def packetize_at(stream, cuts):
    boundaries = sorted({0, len(stream), *[c for c in cuts if c < len(stream)]})
    return [
        stream[boundaries[i] : boundaries[i + 1]]
        for i in range(len(boundaries) - 1)
    ]


@given(patterns=pattern_list, stream=stream_strategy, cuts=cut_list)
@settings(max_examples=150, deadline=None)
def test_stateful_scan_is_packetization_invariant(patterns, stream, cuts):
    """However a flow is packetized, a stateful middlebox sees exactly the
    matches of the whole stream, at flow-relative positions."""
    whole_scanner = make_scanner(patterns, stateful=True)
    whole = whole_scanner.scan_packet(stream, CHAIN, flow_key="flow")
    expected = set(whole.matches_for(0))

    split_scanner = make_scanner(patterns, stateful=True)
    collected = set()
    for packet in packetize_at(stream, cuts):
        result = split_scanner.scan_packet(packet, CHAIN, flow_key="flow")
        collected |= set(result.matches_for(0))
    assert collected == expected


@given(patterns=pattern_list, stream=stream_strategy, cuts=cut_list)
@settings(max_examples=150, deadline=None)
def test_stateless_never_reports_cross_packet_matches(patterns, stream, cuts):
    """A stateless middlebox's matches per packet equal scanning each packet
    in isolation — no cross-packet artifacts, whatever the packetization."""
    scanner = make_scanner(patterns, stateful=False)
    isolated_scanner = make_scanner(patterns, stateful=False)
    for index, packet in enumerate(packetize_at(stream, cuts)):
        streamed = scanner.scan_packet(packet, CHAIN, flow_key="flow")
        isolated = isolated_scanner.scan_packet(packet, CHAIN, flow_key=None)
        assert streamed.matches_for(0) == isolated.matches_for(0), index


@given(patterns=pattern_list, stream=stream_strategy, cuts=cut_list)
@settings(max_examples=100, deadline=None)
def test_mixed_chain_stateless_subset_of_packet_matches(patterns, stream, cuts):
    """With a stateful middlebox forcing mid-DFA resumes, a stateless
    middlebox sharing the chain still reports exactly the per-packet
    matches."""
    automaton = CombinedAutomaton(
        {
            0: [Pattern(i, p) for i, p in enumerate(patterns)],
            1: [Pattern(i, p) for i, p in enumerate(patterns)],
        }
    )
    profiles = {
        0: MiddleboxProfile(0, stateful=False),
        1: MiddleboxProfile(1, stateful=True),
    }
    scanner = VirtualScanner(automaton, profiles, {CHAIN: (0, 1)})
    oracle = make_scanner(patterns, stateful=False)
    for packet in packetize_at(stream, cuts):
        result = scanner.scan_packet(packet, CHAIN, flow_key="flow")
        isolated = oracle.scan_packet(packet, CHAIN, flow_key=None)
        assert result.matches_for(0) == isolated.matches_for(0)


@given(
    patterns=pattern_list,
    stream=stream_strategy,
    stop=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=100, deadline=None)
def test_stopping_condition_prunes_exactly_deep_matches(patterns, stream, stop):
    automaton = CombinedAutomaton(
        {0: [Pattern(i, p) for i, p in enumerate(patterns)]}
    )
    bounded = VirtualScanner(
        automaton,
        {0: MiddleboxProfile(0, stopping_condition=stop)},
        {CHAIN: (0,)},
    )
    unbounded = VirtualScanner(
        automaton, {0: MiddleboxProfile(0)}, {CHAIN: (0,)}
    )
    got = set(bounded.scan_packet(stream, CHAIN).matches_for(0))
    full = set(unbounded.scan_packet(stream, CHAIN).matches_for(0))
    assert got == {(pid, pos) for pid, pos in full if pos <= stop}


# Streams for the ordering property: patterns embedded in lowercase filler
# no pattern uses, so the regex kernel's anchors are sparse enough to stay
# on its prefilter path as well as dense enough (short fillers) to bail.
filler = st.binary(min_size=0, max_size=12).map(
    lambda raw: bytes(b % 26 + 0x61 for b in raw)
)


@given(
    patterns=pattern_list,
    ids=st.permutations(range(6)),
    chunks=st.lists(st.one_of(pattern, filler), max_size=12),
    cuts=cut_list,
    kernel=st.sampled_from(KERNEL_NAMES),
    stop=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=200, deadline=None)
def test_match_lists_come_out_in_position_then_pattern_order(
    patterns, ids, chunks, cuts, kernel, stop
):
    """Every per-middlebox list ``scan_packet`` returns is already ordered
    by (position, pattern id) — one accepting state per position, entries
    pattern-sorted within it — on every kernel, for stateless, stateful and
    stopping-condition profiles, alone and sharing a chain.  The scanner
    relies on this: it does not sort."""
    owned = [Pattern(ids[i], p) for i, p in enumerate(patterns)]
    automaton = CombinedAutomaton(
        {0: owned, 1: owned, 2: owned, 3: owned}, kernel=kernel
    )
    profiles = {
        0: MiddleboxProfile(0),
        1: MiddleboxProfile(1, stopping_condition=stop),
        2: MiddleboxProfile(2, stateful=True),
        3: MiddleboxProfile(3, stateful=True, stopping_condition=stop),
    }
    chains = {1: (0,), 2: (1,), 3: (2,), 4: (3,), 5: (0, 1, 2, 3)}
    scanner = VirtualScanner(automaton, profiles, chains)
    for packet in packetize_at(b"".join(chunks), cuts):
        for chain_id in chains:
            result = scanner.scan_packet(packet, chain_id, flow_key=chain_id)
            for middlebox_id, matches in result.matches.items():
                assert matches == sorted(
                    matches, key=lambda match: (match[1], match[0])
                ), (kernel, chain_id, middlebox_id)
