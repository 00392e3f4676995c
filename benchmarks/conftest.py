"""Shared fixtures for the paper-reproduction benchmarks.

Every benchmark regenerates one of the paper's tables or figures and prints
the same rows/series the paper reports.  Absolute throughput is pure-Python
(orders of magnitude below the paper's C engine on real hardware); the
*shape* — who wins, by what factor, where crossovers fall — is what each
benchmark asserts.

Scale: the Snort-like corpus uses the paper's full 4,356 patterns.  The
ClamAV-like corpus defaults to 8,000 patterns (the full 31,827 make the
sparse automaton build take ~30 s); set ``REPRO_FULL_SCALE=1`` to run the
published sizes.
"""

from __future__ import annotations

import os

import pytest

from repro.workloads.patterns import (
    CLAMAV_PATTERN_COUNT,
    SNORT_PATTERN_COUNT,
    generate_clamav_like,
    generate_snort_like,
)
from repro.workloads.traffic import TrafficGenerator

FULL_SCALE = os.environ.get("REPRO_FULL_SCALE") == "1"
CLAMAV_BENCH_COUNT = CLAMAV_PATTERN_COUNT if FULL_SCALE else 8000


@pytest.fixture(scope="session")
def snort_corpus():
    """The full Snort-like exact-match corpus (4,356 patterns)."""
    return generate_snort_like(SNORT_PATTERN_COUNT, seed=1)


@pytest.fixture(scope="session")
def clamav_corpus():
    """The ClamAV-like corpus (scaled; see module docstring)."""
    return generate_clamav_like(CLAMAV_BENCH_COUNT, seed=2)


@pytest.fixture(scope="session")
def http_trace(snort_corpus):
    """An HTTP-crawl-like trace (the paper's 'popular websites' trace)."""
    generator = TrafficGenerator(seed=7, style="http")
    return generator.trace(60, patterns=snort_corpus, match_rate=0.08)


@pytest.fixture(scope="session")
def campus_trace(snort_corpus):
    """A campus-like mixed trace (the paper's 9 GB wireless tap)."""
    generator = TrafficGenerator(seed=8, style="campus")
    return generator.trace(400, patterns=snort_corpus, match_rate=0.08)


def interleaved_throughput(automata, payloads, rounds=4, repeat=2, warmup=20):
    """Raw scan throughput (Mbps) per named automaton, measured round-robin.

    Each value of *automata* is an automaton (its ``scan`` is timed) or a
    bare ``scan(payload)`` callable.  Interleaving the configurations makes
    CPU-frequency drift and cache pollution hit all of them equally; the
    per-config best round filters transient dips.  Returns ``{name: mbps}``.
    """
    from repro.bench.throughput import measure_scan_throughput

    scans = {
        name: getattr(automaton, "scan", automaton)
        for name, automaton in automata.items()
    }
    samples = {name: [] for name in scans}
    for scan in scans.values():
        for payload in payloads[:warmup]:
            scan(payload)
    for _ in range(rounds):
        for name, scan in scans.items():
            result = measure_scan_throughput(
                lambda p, scan=scan: scan(p), payloads, repeat=repeat
            )
            samples[name].append(result.mbps)
    return {name: max(values) for name, values in samples.items()}


#: The smallest speed ratio a millisecond-scale :func:`interleaved_throughput`
#: run resolves on a shared box whose CPU flips between two speeds ~1.27x
#: apart; a closer ordering is reported, not asserted.
RESOLVABLE_RATIO = 1.15


def assert_ordering(label, ratio):
    """Assert ``ratio > 1`` — the paper's ordering — unless the measurement
    cannot resolve it (``ratio`` within :data:`RESOLVABLE_RATIO` of 1), in
    which case the ordering is printed as unresolved."""
    if 1 / RESOLVABLE_RATIO < ratio < RESOLVABLE_RATIO:
        print(f"unresolved (< {RESOLVABLE_RATIO}x): {label} = {ratio:.2f}x")
        return
    assert ratio > 1, f"{label} = {ratio:.2f}x"


def run_once(benchmark, experiment):
    """Run *experiment* exactly once under pytest-benchmark accounting.

    The experiments are whole table/figure regenerations (seconds each), so
    statistical rounds are pointless; pedantic mode keeps them visible to
    ``--benchmark-only`` without re-running them.
    """
    return benchmark.pedantic(experiment, rounds=1, iterations=1, warmup_rounds=0)
