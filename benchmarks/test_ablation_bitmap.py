"""Ablation — the per-state middlebox bitmap (Section 5.1).

The combined automaton marks each accepting state with a bitmap of the
middleboxes that registered its patterns, so one AND decides whether the
match table must be consulted.  The alternative resolves the match table on
every accepting state and filters afterwards.

The bitmap's value shows when a packet's policy chain activates only a small
subset of the middleboxes whose patterns dominate the traffic's matches.
"""

from __future__ import annotations

import time

from repro.bench.harness import Table
from repro.core.combined import CombinedAutomaton
from repro.workloads.patterns import random_split, to_pattern_list

from benchmarks.conftest import run_once


def _scan_with_post_filter(automaton, payload, active_bitmap):
    """The no-bitmap variant: report every accepting state, filter later."""
    result = automaton.scan(payload)  # all middleboxes active
    kept = []
    for state, cnt in result.raw_matches:
        for pair, length in automaton.resolve(state, active_bitmap):
            kept.append((pair, cnt))
    return kept


def test_ablation_accept_bitmap(benchmark, snort_corpus):
    def experiment():
        set_a, set_b = random_split(snort_corpus[:2000], parts=2, seed=4)
        automaton = CombinedAutomaton(
            {1: to_pattern_list(set_a), 2: to_pattern_list(set_b)}
        )
        # Match-dense traffic built from middlebox 2's patterns, scanned for
        # a chain that only includes middlebox 1: every accepting state hit
        # is irrelevant, which is exactly what the bitmap filters out.
        from repro.workloads.attacks import match_flood_payload

        payloads = [
            match_flood_payload(set_b, 1400, seed=seed) for seed in range(40)
        ]
        only_1 = automaton.bitmask_of([1])

        for payload in payloads[:10]:
            automaton.scan(payload, active_bitmap=only_1)
            _scan_with_post_filter(automaton, payload, only_1)

        started = time.perf_counter()
        for _ in range(3):
            for payload in payloads:
                automaton.scan(payload, active_bitmap=only_1)
        bitmap_seconds = time.perf_counter() - started

        started = time.perf_counter()
        for _ in range(3):
            for payload in payloads:
                _scan_with_post_filter(automaton, payload, only_1)
        post_filter_seconds = time.perf_counter() - started

        table = Table(
            "Ablation: accept bitmap vs post-filtering",
            ["variant", "seconds (3 passes)"],
        )
        table.add_row("bitmap AND during scan", bitmap_seconds)
        table.add_row("resolve-then-filter", post_filter_seconds)
        table.print()
        return bitmap_seconds, post_filter_seconds

    bitmap_seconds, post_filter_seconds = run_once(benchmark, experiment)
    # Skipping irrelevant accepting states during the scan must not lose to
    # resolving every one of them.
    assert bitmap_seconds < post_filter_seconds


def test_bitmap_filter_correctness(snort_corpus):
    """Both variants agree on the reported matches (run without
    ``--benchmark-only``)."""
    set_a, set_b = random_split(snort_corpus[:400], parts=2, seed=4)
    automaton = CombinedAutomaton(
        {1: to_pattern_list(set_a), 2: to_pattern_list(set_b)}
    )
    from repro.workloads.traffic import TrafficGenerator

    generator = TrafficGenerator(seed=12)
    trace = generator.trace(20, patterns=snort_corpus[:400], match_rate=0.5)
    only_1 = automaton.bitmask_of([1])
    for payload in trace.payloads:
        fast = automaton.scan(payload, active_bitmap=only_1)
        fast_pairs = sorted(
            (pair, cnt)
            for state, cnt in fast.raw_matches
            for pair, _len in automaton.resolve(state, only_1)
        )
        slow_pairs = sorted(_scan_with_post_filter(automaton, payload, only_1))
        assert fast_pairs == slow_pairs
