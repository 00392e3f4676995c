"""Ablation — stopping conditions (paper Section 5.1, footnote 5).

Middleboxes that only care about application-layer headers declare a
stopping condition; the scanner uses the *most conservative* one to
truncate the scan.  This benchmark measures the saving when every
middlebox on the chain is header-only versus scanning full payloads.
"""

from __future__ import annotations

import time

from repro.bench.harness import Table, percent_less
from repro.core.combined import CombinedAutomaton
from repro.core.scanner import MiddleboxProfile, VirtualScanner
from repro.workloads.patterns import to_pattern_list

from benchmarks.conftest import run_once

CHAIN = 1


def _scanner(patterns, stopping_condition):
    automaton = CombinedAutomaton({0: to_pattern_list(patterns)})
    profiles = {
        0: MiddleboxProfile(0, stopping_condition=stopping_condition)
    }
    return VirtualScanner(automaton, profiles, {CHAIN: (0,)})


def test_ablation_stopping_condition(benchmark, snort_corpus, http_trace):
    def experiment():
        patterns = snort_corpus[:2000]
        variants = {
            "unbounded": _scanner(patterns, None),
            "stop at 256 B": _scanner(patterns, 256),
            "stop at 64 B": _scanner(patterns, 64),
        }
        timings = {}
        scanned = {}
        for name, scanner in variants.items():
            for payload in http_trace.payloads[:10]:
                scanner.scan_packet(payload, CHAIN)
            started = time.perf_counter()
            bytes_scanned = 0
            for _ in range(3):
                for payload in http_trace.payloads:
                    result = scanner.scan_packet(payload, CHAIN)
                    bytes_scanned += result.bytes_scanned
            timings[name] = time.perf_counter() - started
            scanned[name] = bytes_scanned
        table = Table(
            "Ablation: stopping conditions (header-only middleboxes)",
            ["variant", "seconds (3 passes)", "bytes scanned"],
        )
        for name in variants:
            table.add_row(name, timings[name], scanned[name])
        table.print()
        return timings, scanned

    timings, scanned = run_once(benchmark, experiment)
    # The scan is truncated, so both bytes and time shrink monotonically.
    assert scanned["stop at 64 B"] < scanned["stop at 256 B"] < scanned["unbounded"]
    assert timings["stop at 64 B"] < timings["unbounded"]
    saving = percent_less(timings["stop at 64 B"], timings["unbounded"])
    assert saving > 30.0, f"only {saving:.1f}% saved by the 64-byte stop"
