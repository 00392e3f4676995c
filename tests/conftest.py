"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.aho_corasick import AhoCorasick
from repro.core.patterns import Pattern
from repro.net.packet import Packet
from repro.workloads.patterns import generate_snort_like
from repro.workloads.traffic import TrafficGenerator

#: The paper's Figure 4 / Figure 7 example pattern sets.
PAPER_SET_0 = [b"E", b"BE", b"BD", b"BCD", b"BCAA", b"CDBCAB"]
PAPER_SET_1 = [b"EDAE", b"BE", b"CDBA", b"CBD"]


@pytest.fixture
def paper_pattern_sets():
    """``{middlebox id: [Pattern]}`` for the paper's running example."""
    return {
        0: [Pattern(i, data) for i, data in enumerate(PAPER_SET_0)],
        1: [Pattern(i, data) for i, data in enumerate(PAPER_SET_1)],
    }


@pytest.fixture(scope="session")
def snort_like_small():
    """A small Snort-like corpus, shared across the session for speed."""
    return generate_snort_like(count=300, seed=42)


@pytest.fixture(scope="session")
def http_trace(snort_like_small):
    """A small HTTP-like trace with some injected matches."""
    generator = TrafficGenerator(seed=5, style="http")
    return generator.trace(80, patterns=snort_like_small, match_rate=0.15)


@pytest.fixture
def checked_length_memo(monkeypatch):
    """Every ``Packet.hop_length`` read must agree with a fresh
    ``wire_length``: a header change that forgets to reset ``length_memo``
    fails the test that drives it."""
    memoized = Packet.hop_length

    def checked(packet):
        length = memoized(packet)
        assert length == packet.wire_length, packet
        return length

    monkeypatch.setattr(Packet, "hop_length", checked)


def naive_find_all(patterns, text):
    """Oracle: all (end offset, pattern index) matches by brute force."""
    matches = []
    for index, pattern in enumerate(patterns):
        start = 0
        while True:
            found = text.find(pattern, start)
            if found == -1:
                break
            matches.append((found + len(pattern), index))
            start = found + 1
    return sorted(matches)


class PrivateOracle:
    """Each middlebox's own Aho-Corasick automaton, in a chosen layout —
    the paper's baseline, where every middlebox scans alone — checked
    against one combined automaton built from the same pattern sets.

    A combined state stands for its trie label (the longest suffix of the
    input that is a prefix of some pattern), so a resumed scan maps to
    each private automaton through ``state_after(label)``.
    """

    def __init__(self, automaton, pattern_sets, layout: str) -> None:
        self.automaton = automaton
        self.private = {
            middlebox_id: (
                AhoCorasick([p.data for p in patterns], layout=layout),
                [p.pattern_id for p in patterns],
            )
            for middlebox_id, patterns in pattern_sets.items()
        }
        self.labels = {automaton.root: b""}
        queue = [automaton.root]
        for state in queue:  # breadth-first over the goto edges
            for byte, child in automaton._goto[state].items():
                self.labels[child] = self.labels[state] + bytes((byte,))
                queue.append(child)

    def accepting_bitmap(self, state: int) -> int:
        """The middleboxes whose private automaton accepts at *state*'s
        label, as a bitmap."""
        bitmap = 0
        for middlebox_id, (private, _ids) in self.private.items():
            if private.is_accepting(private.state_after(self.labels[state])):
                bitmap |= 1 << middlebox_id
        return bitmap

    def check(self, result, data, active_bitmap=None, state=None, limit=None):
        """Assert a combined scan reports, per active middlebox, exactly the
        ``(end, pattern id)`` matches its private automaton finds, scans
        the bytes it does and ends in the state it ends in."""
        automaton = self.automaton
        view = bytes(data)[:limit]
        start = self.labels[automaton.root if state is None else state]
        end = self.labels[result.end_state]
        active = active_bitmap
        if active is None:
            active = automaton.all_middleboxes_bitmap
        found = sorted(
            (cnt, middlebox_id, pattern_id)
            for accept_state, cnt in result.raw_matches
            for middlebox_id, pattern_id in automaton.match_entry(accept_state)
            if active >> middlebox_id & 1
        )
        expected = []
        for middlebox_id, (private, ids) in self.private.items():
            matches, private_end = private.scan(view, private.state_after(start))
            assert private_end == private.state_after(end), middlebox_id
            if active >> middlebox_id & 1:
                expected.extend(
                    (position, middlebox_id, ids[index])
                    for position, index in matches
                )
        assert found == sorted(expected)
        assert result.bytes_scanned == len(view)


def spy_on_fallback(kernel):
    """Log every whole-slice hand-off a regex kernel makes to its flat
    fallback; returns the list the ``(length, start state)`` pairs go to."""
    calls = []
    flat_scan = kernel._fallback.scan

    def scan(data, active_bitmap, state, limit):
        calls.append((len(data), state))
        return flat_scan(data, active_bitmap, state, limit)

    kernel._fallback.scan = scan
    return calls
