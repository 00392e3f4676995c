"""Brute-force match oracle for the benchmark's checker.

Shares no code with ``repro.core``: a literal is searched with
``bytes.find``, a bounded-gap rule ``A.{0,g}B`` with ``find``/``rfind``.
What it pins is the service's contract as the paper states it (Sections
5.2-5.3), for one consumer looking at one flow:

* a **stateless** consumer sees each packet alone: an occurrence counts when
  it lies wholly inside the packet, its position is the end offset within
  the packet, and it is dropped when that offset exceeds the stopping
  condition;
* a **stateful** consumer sees the flow's concatenated payloads: occurrences
  may straddle packet boundaries, the position is the end offset within the
  flow, the occurrence belongs to the packet in which it ends, and it is
  dropped when the flow offset exceeds the stopping condition;
* a **gap rule** is confirmed on one packet at a time for either kind of
  consumer (the service hands the full expression one payload, never a
  stream), leftmost, longest gap first, non-overlapping, position = end
  offset within the packet.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Consumer:
    """What one consumer registered, in plain data."""

    name: str
    stateful: bool = False
    stop: "int | None" = None
    #: pattern id -> literal bytes
    literals: dict = field(default_factory=dict)
    #: pattern id -> (first anchor, maximal gap, second anchor)
    gap_rules: dict = field(default_factory=dict)


def find_all(data: bytes, needle: bytes) -> list:
    """End offsets of every (possibly overlapping) occurrence of *needle*."""
    ends = []
    start = data.find(needle)
    while start >= 0:
        ends.append(start + len(needle))
        start = data.find(needle, start + 1)
    return ends


def gap_rule_ends(data: bytes, first: bytes, gap: int, second: bytes) -> list:
    """End offsets of ``first .{0,gap} second`` in *data*: leftmost match,
    longest gap first, scanning on from each match's end."""
    ends = []
    position = 0
    while True:
        start = data.find(first, position)
        if start < 0:
            return ends
        window_start = start + len(first)
        window = data[window_start : window_start + gap + len(second)]
        hit = window.rfind(second)
        if hit < 0:
            position = start + 1
            continue
        end = window_start + hit + len(second)
        ends.append(end)
        position = end


def expected_matches(consumer: Consumer, payloads: list) -> list:
    """Per packet of one flow, the sorted ``(pattern id, position)`` list the
    consumer must be told about."""
    per_packet: list = [[] for _ in payloads]
    stop = consumer.stop
    if consumer.stateful:
        stream = b"".join(payloads)
        boundaries = []
        total = 0
        for payload in payloads:
            total += len(payload)
            boundaries.append(total)
        for pattern_id, literal in consumer.literals.items():
            for end in find_all(stream, literal):
                if stop is not None and end > stop:
                    continue
                per_packet[bisect_left(boundaries, end)].append((pattern_id, end))
    else:
        for index, payload in enumerate(payloads):
            for pattern_id, literal in consumer.literals.items():
                for end in find_all(payload, literal):
                    if stop is None or end <= stop:
                        per_packet[index].append((pattern_id, end))
    for index, payload in enumerate(payloads):
        for pattern_id, (first, gap, second) in consumer.gap_rules.items():
            for end in gap_rule_ends(payload, first, gap, second):
                if consumer.stateful or stop is None or end <= stop:
                    per_packet[index].append((pattern_id, end))
    for matches in per_packet:
        matches.sort()
    return per_packet


def first_difference(expected: list, actual: list):
    """The first ``(pattern id, position)`` on which two sorted lists differ,
    tagged with the side that has it; None when they agree."""
    for want, got in zip(expected, actual):
        if want != got:
            return ("missing", want) if want < got else ("unexpected", got)
    if len(expected) > len(actual):
        return ("missing", expected[len(actual)])
    if len(actual) > len(expected):
        return ("unexpected", actual[len(expected)])
    return None
