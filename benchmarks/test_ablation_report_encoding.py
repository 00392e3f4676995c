"""Ablation — match-report encoding (Section 6.5's design choice).

The paper uses uniform 6-byte records so that *range* reports (one pattern
matching at a run of consecutive positions — the repeated-character case)
cost a single record.  The alternative is a 4-byte single-match record with
no range form.  On ordinary traffic the 4-byte form is smaller; on
repeated-character payloads the range form wins by orders of magnitude —
which is exactly why the paper pays the 2 extra bytes.
"""

from __future__ import annotations

from repro.bench.harness import Table
from repro.core.instance import DPIServiceInstance, InstanceConfig
from repro.core.patterns import Pattern
from repro.core.scanner import MiddleboxProfile

from benchmarks.conftest import run_once

CHAIN = 100


def _instance(snort_corpus):
    from repro.workloads.patterns import to_pattern_list

    patterns = to_pattern_list(snort_corpus[:2000])
    # Add a repeated-character pattern: the range-report trigger.
    patterns.append(Pattern(pattern_id=5000, data=b"A" * 8))
    return DPIServiceInstance(
        InstanceConfig(
            pattern_sets={1: patterns},
            profiles={1: MiddleboxProfile(1, name="ids")},
            chain_map={CHAIN: (1,)},
        )
    )


def test_ablation_report_encoding(benchmark, snort_corpus, campus_trace):
    def experiment():
        instance = _instance(snort_corpus)
        ordinary_range = 0
        ordinary_compact = 0
        for payload in campus_trace.payloads:
            output = instance.inspect(payload, chain_id=CHAIN)
            if output.report.is_empty:
                continue
            ordinary_range += len(output.report.encode())
            ordinary_compact += len(output.report.encode_compact())

        # The repeated-character payload: one pattern, hundreds of
        # consecutive match positions.
        run_payload = b"A" * 600
        output = instance.inspect(run_payload, chain_id=CHAIN)
        run_range = len(output.report.encode())
        run_compact = len(output.report.encode_compact())

        table = Table(
            "Ablation: report encoding (6B records + ranges vs 4B singles)",
            ["workload", "6B + ranges [bytes]", "4B singles [bytes]"],
        )
        table.add_row("campus trace (all matched packets)", ordinary_range, ordinary_compact)
        table.add_row("repeated-character payload", run_range, run_compact)
        table.print()
        return ordinary_range, ordinary_compact, run_range, run_compact

    ordinary_range, ordinary_compact, run_range, run_compact = run_once(
        benchmark, experiment
    )
    # Ordinary traffic: singles are (moderately) smaller per record.
    assert ordinary_compact <= ordinary_range
    # Repeated characters: range records collapse hundreds of matches.
    assert run_range < run_compact / 20
