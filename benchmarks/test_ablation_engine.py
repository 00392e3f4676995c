"""Ablation — Aho-Corasick vs Wu-Manber as the string-matching engine.

The paper (Section 2.2) names both as the classic exact multi-string
matchers for DPI.  Wu-Manber's skip loop makes it fast when the minimum
pattern length is large, while AC's per-byte cost is flat; with the paper's
>= 8-byte Snort patterns the engines trade places depending on the traffic's
match density.
"""

from __future__ import annotations

from repro.bench.harness import Table
from repro.core.aho_corasick import AhoCorasick
from repro.core.wu_manber import WuManber
from repro.workloads.attacks import match_flood_payload

from benchmarks.conftest import assert_ordering, interleaved_throughput, run_once


def test_ablation_engine_choice(benchmark, snort_corpus, http_trace):
    def experiment():
        patterns = snort_corpus[:2000]
        engines = {
            "aho-corasick (full)": AhoCorasick(patterns, layout="full"),
            "aho-corasick (sparse)": AhoCorasick(patterns, layout="sparse"),
            "wu-manber": WuManber(patterns),
        }
        flood = [match_flood_payload(patterns, 1400, seed=s) for s in range(20)]
        workloads = {"benign trace": http_trace.payloads, "match flood": flood}

        counters = {name: e.count_matches for name, e in engines.items()}
        mbps = {
            workload_name: interleaved_throughput(counters, payloads)
            for workload_name, payloads in workloads.items()
        }

        table = Table(
            "Ablation: string-matching engine (2000 Snort-like patterns)",
            ["engine", "benign trace [Mbps]", "match flood [Mbps]"],
        )
        for engine_name in engines:
            table.add_row(
                engine_name,
                mbps["benign trace"][engine_name],
                mbps["match flood"][engine_name],
            )
        table.print()

        # Correctness cross-check on a sample payload.
        sample = http_trace.payloads[0]
        ac_matches = sorted(engines["aho-corasick (full)"].scan(sample)[0])
        wm_matches = engines["wu-manber"].scan(sample)
        assert ac_matches == wm_matches
        return mbps

    mbps = run_once(benchmark, experiment)
    benign, flood = mbps["benign trace"], mbps["match flood"]
    # Wu-Manber's skip loop wins on benign traffic (long min pattern, few
    # matches)...
    assert_ordering(
        "wu-manber / aho-corasick (sparse) on the benign trace",
        benign["wu-manber"] / benign["aho-corasick (sparse)"],
    )
    # ... but loses its advantage on match-dense traffic, where windows
    # shift by one and verification dominates.
    benign_ratio = benign["wu-manber"] / benign["aho-corasick (full)"]
    flood_ratio = flood["wu-manber"] / flood["aho-corasick (full)"]
    assert_ordering(
        "wu-manber's edge over aho-corasick (full), benign / flood",
        benign_ratio / flood_ratio,
    )
