"""Property tests: report encode/decode round-trips and run compression."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reports import MatchReport, compress_matches

POSITIONS = st.one_of(
    st.integers(min_value=0, max_value=0xFFFFFF),
    st.sampled_from([0, 1, 0xFFFF, 0x10000, 0xFFFFFF]),
)
match_pair = st.tuples(st.integers(min_value=0, max_value=0xFFFF), POSITIONS)


@st.composite
def runs(draw):
    """One pattern at consecutive positions: 2, 255, 256 or a few hundred."""
    pattern_id = draw(st.integers(min_value=0, max_value=0xFFFF))
    length = draw(st.one_of(st.sampled_from([2, 255, 256]), st.integers(2, 600)))
    start = draw(st.integers(min_value=0, max_value=0xFFFFFF - length + 1))
    return [(pattern_id, start + step) for step in range(length)]


def _shuffled(pairs: list, extra: list, rng) -> list:
    whole = pairs + [pair for run in extra for pair in run]
    rng.shuffle(whole)
    return whole


# Singles (with repeats), with up to two runs mixed in, in any order.
match_list = st.builds(
    _shuffled,
    st.lists(match_pair, max_size=40),
    st.lists(runs(), max_size=2),
    st.randoms(use_true_random=False),
)
per_middlebox = st.dictionaries(
    st.integers(min_value=0, max_value=50), match_list, max_size=5
)


@given(matches=per_middlebox)
@settings(max_examples=200, deadline=None)
def test_report_round_trip(matches):
    report = MatchReport.from_matches(matches)
    encoded = report.encode()
    decoded = MatchReport.decode(encoded)
    for middlebox_id, pairs in matches.items():
        # Duplicates and all: what comes back is the input in record order.
        assert decoded.matches_for(middlebox_id) == sorted(pairs)
        assert report.matches_for(middlebox_id) == sorted(pairs)
    assert decoded.blocks == report.blocks
    assert decoded.total_records() == report.total_records()
    assert decoded.size_bytes() == report.size_bytes() == len(encoded)
    assert decoded.is_empty == report.is_empty
    assert decoded.encode() == encoded


@given(matches=match_list)
@settings(max_examples=200, deadline=None)
def test_compression_preserves_matches(matches):
    """compress + expand is the identity on duplicate-free match lists."""
    unique = sorted(set(matches))
    records = compress_matches(unique)
    expanded = sorted(
        (pattern_id, position + step)
        for pattern_id, position, run in records
        for step in range(run)
    )
    assert expanded == unique


@given(matches=per_middlebox)
@settings(max_examples=100, deadline=None)
def test_size_bytes_equals_encoded_length(matches):
    report = MatchReport.from_matches(matches)
    assert report.size_bytes() == len(report.encode())


@given(
    pattern_id=st.integers(min_value=0, max_value=0xFFFF),
    start=st.integers(min_value=0, max_value=1000),
    length=st.integers(min_value=1, max_value=600),
)
@settings(max_examples=100, deadline=None)
def test_runs_round_trip(pattern_id, start, length):
    run = [(pattern_id, start + offset) for offset in range(length)]
    report = MatchReport.from_matches({0: run})
    assert sorted(MatchReport.decode(report.encode()).matches_for(0)) == run
