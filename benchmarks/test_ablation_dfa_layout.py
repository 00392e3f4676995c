"""Ablation — full-table vs sparse (failure-link) DFA layout.

DESIGN.md calls out the layout as a deliberate choice: the full table costs
``states * 256`` entries but scans with one lookup per byte; the sparse
layout stores only trie edges but walks failure chains.  This benchmark
quantifies the trade on the Snort-scale corpus.
"""

from __future__ import annotations

from repro.bench.harness import Table
from repro.core.aho_corasick import AhoCorasick

from benchmarks.conftest import assert_ordering, interleaved_throughput, run_once


def test_ablation_dfa_layout(benchmark, snort_corpus, http_trace):
    def experiment():
        patterns = snort_corpus[:2000]
        automata = {
            layout: AhoCorasick(patterns, layout=layout)
            for layout in ("sparse", "full")
        }
        mbps = interleaved_throughput(
            {name: a.count_matches for name, a in automata.items()},
            http_trace.payloads,
        )
        results = {
            layout: (mbps[layout], automaton.stats.memory_bytes)
            for layout, automaton in automata.items()
        }
        table = Table(
            "Ablation: DFA layout (2000 Snort-like patterns)",
            ["layout", "throughput [Mbps]", "memory [MB]"],
        )
        for layout, (mbps, memory) in results.items():
            table.add_row(layout, mbps, memory / 2**20)
        table.print()
        return results

    results = run_once(benchmark, experiment)
    sparse_mbps, sparse_memory = results["sparse"]
    full_mbps, full_memory = results["full"]
    # The trade: the full table is faster per byte but pays for it in
    # memory by an order of magnitude.
    assert_ordering("full / sparse throughput", full_mbps / sparse_mbps)
    assert full_memory > sparse_memory * 5
