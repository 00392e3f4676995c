"""Figure 11 — cumulative distribution of non-empty match-report sizes.

The paper runs the campus trace through the service with 6-byte match
records and reports: more than 90 % of packets have no matches at all; among
the non-empty reports the average size is 34 bytes, most reports are smaller
than the average, and only ~1 % exceed 120 bytes.
"""

from __future__ import annotations

from repro.bench.harness import Table
from repro.core.instance import DPIServiceInstance, InstanceConfig
from repro.core.scanner import MiddleboxProfile
from repro.workloads.patterns import random_split, to_pattern_list

from benchmarks.conftest import run_once

CHAIN = 100


def _build_instance(snort_corpus):
    set_a, set_b = random_split(snort_corpus, parts=2, seed=4)
    return DPIServiceInstance(
        InstanceConfig(
            pattern_sets={1: to_pattern_list(set_a), 2: to_pattern_list(set_b)},
            profiles={
                1: MiddleboxProfile(1, name="ids"),
                2: MiddleboxProfile(2, name="av"),
            },
            chain_map={CHAIN: (1, 2)},
        )
    )


def test_fig11_match_report_size_distribution(benchmark, snort_corpus, campus_trace):
    def experiment():
        instance = _build_instance(snort_corpus)
        report_sizes = []
        empty = 0
        for payload in campus_trace.payloads:
            output = instance.inspect(payload, chain_id=CHAIN)
            if output.report.is_empty:
                empty += 1
            else:
                report_sizes.append(output.report.size_bytes())
        report_sizes.sort()
        return empty, report_sizes

    empty, report_sizes = run_once(benchmark, experiment)
    total_packets = empty + len(report_sizes)
    assert report_sizes, "trace produced no matches at all"

    mean_size = sum(report_sizes) / len(report_sizes)
    table = Table(
        "Figure 11: non-empty match report size per packet",
        ["percentile", "report size [bytes]"],
    )
    for percentile in (10, 25, 50, 75, 90, 99):
        index = min(
            len(report_sizes) - 1, int(len(report_sizes) * percentile / 100)
        )
        table.add_row(f"p{percentile}", report_sizes[index])
    table.add_row("mean", mean_size)
    table.add_row("matchless packets %", 100.0 * empty / total_packets)
    table.print()

    # Paper: >90 % of packets carry no matches.
    assert empty / total_packets > 0.85
    # Reports are small: the mean sits in the tens of bytes...
    assert mean_size < 150.0
    # ... most reports are below the mean (a light-tailed bulk) ...
    below_mean = sum(1 for size in report_sizes if size <= mean_size)
    assert below_mean / len(report_sizes) >= 0.5
    # ... and only a small tail is large (paper: ~1 % above 120 bytes;
    # allow up to 15 % above 4x the median for the synthetic trace).
    median = report_sizes[len(report_sizes) // 2]
    heavy_tail = sum(1 for size in report_sizes if size > 4 * median)
    assert heavy_tail / len(report_sizes) < 0.15
