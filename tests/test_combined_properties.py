"""Property tests: the combined automaton is equivalent to private ones.

This is the paper's central correctness requirement — merging pattern sets
must not change what each middlebox would have seen with its own engine.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aho_corasick import AhoCorasick
from repro.core.combined import CombinedAutomaton
from repro.core.patterns import Pattern
from tests.conftest import PrivateOracle


def _to_bytes(raw: bytes) -> bytes:
    return bytes(b % 4 + 0x41 for b in raw)


pattern = st.binary(min_size=1, max_size=5).map(_to_bytes)
pattern_list = st.lists(pattern, min_size=1, max_size=6, unique=True)
text_strategy = st.binary(min_size=0, max_size=50).map(_to_bytes)


@given(set_a=pattern_list, set_b=pattern_list, text=text_strategy)
@settings(max_examples=120, deadline=None)
def test_combined_equals_private_per_middlebox(set_a, set_b, text):
    pattern_sets = {
        0: [Pattern(i, p) for i, p in enumerate(set_a)],
        1: [Pattern(i, p) for i, p in enumerate(set_b)],
    }
    combined = CombinedAutomaton(pattern_sets)
    result = combined.scan(text)
    merged = {0: set(), 1: set()}
    for state, cnt in result.raw_matches:
        for middlebox_id, pattern_id in combined.match_entry(state):
            merged[middlebox_id].add((cnt, pattern_id))
    for middlebox_id, patterns in ((0, set_a), (1, set_b)):
        private = AhoCorasick(patterns)
        assert merged[middlebox_id] == set(private.scan(text)[0])


@given(set_a=pattern_list, set_b=pattern_list, text=text_strategy)
@settings(max_examples=80, deadline=None)
def test_bitmap_filter_equals_post_filter(set_a, set_b, text):
    """Scanning with an active bitmap equals scanning everything and
    filtering afterwards."""
    pattern_sets = {
        0: [Pattern(i, p) for i, p in enumerate(set_a)],
        1: [Pattern(i, p) for i, p in enumerate(set_b)],
    }
    combined = CombinedAutomaton(pattern_sets)
    only_0 = combined.bitmask_of([0])
    filtered = combined.scan(text, active_bitmap=only_0)
    full = combined.scan(text)
    expected = set()
    for state, cnt in full.raw_matches:
        for (middlebox_id, pattern_id), _len in combined.resolve(state, only_0):
            expected.add((cnt, middlebox_id, pattern_id))
    actual = set()
    for state, cnt in filtered.raw_matches:
        for (middlebox_id, pattern_id), _len in combined.resolve(state, only_0):
            actual.add((cnt, middlebox_id, pattern_id))
    assert actual == expected


@given(set_a=pattern_list, text=text_strategy, cut=st.integers(0, 50))
@settings(max_examples=80, deadline=None)
def test_combined_stateful_split(set_a, text, cut):
    cut = min(cut, len(text))
    pattern_sets = {0: [Pattern(i, p) for i, p in enumerate(set_a)]}
    combined = CombinedAutomaton(pattern_sets)
    whole = combined.scan(text)
    first = combined.scan(text[:cut])
    second = combined.scan(text[cut:], state=first.end_state)
    rebuilt = sorted(
        first.raw_matches + [(s, cut + c) for s, c in second.raw_matches]
    )
    assert rebuilt == sorted(whole.raw_matches)
    assert second.end_state == whole.end_state


@given(set_a=pattern_list, set_b=pattern_list, text=text_strategy)
@settings(max_examples=60, deadline=None)
def test_layouts_equivalent(set_a, set_b, text):
    """The one combined build reports what private automata in either
    layout report, from the root and resumed mid-text."""
    pattern_sets = {
        0: [Pattern(i, p) for i, p in enumerate(set_a)],
        1: [Pattern(i, p) for i, p in enumerate(set_b)],
    }
    combined = CombinedAutomaton(pattern_sets)
    cut = len(text) // 2
    head = combined.scan(text[:cut])
    tail = combined.scan(text[cut:], state=head.end_state)
    for layout in ("sparse", "full"):
        oracle = PrivateOracle(combined, pattern_sets, layout)
        oracle.check(combined.scan(text), text)
        oracle.check(tail, text[cut:], state=head.end_state)


@given(set_a=pattern_list, set_b=pattern_list)
@settings(max_examples=60, deadline=None)
def test_accepting_state_count_bounds(set_a, set_b):
    """f >= number of distinct patterns (extra states only from suffix-
    closure of prefixes) and every accepting state has a non-empty entry."""
    pattern_sets = {
        0: [Pattern(i, p) for i, p in enumerate(set_a)],
        1: [Pattern(i, p) for i, p in enumerate(set_b)],
    }
    combined = CombinedAutomaton(pattern_sets)
    distinct = len({p for p in set_a} | {p for p in set_b})
    assert combined.num_accepting >= distinct
    for state in range(combined.num_accepting):
        assert combined.match_entry(state)
        assert combined.bitmap_of_state(state)
