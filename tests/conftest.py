"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

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
