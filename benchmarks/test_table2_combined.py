"""Table 2 — two separate middleboxes (Snort1, Snort2) vs one virtual DPI
instance with the combined pattern set.

The paper splits Snort's exact-match patterns randomly into two halves and
reports, per configuration: number of patterns, space (full-table AC), and
throughput.  The headline: the combined machine's throughput is **just 12 %
less** than each separate machine's, while one combined automaton replaces
two.
"""

from __future__ import annotations

from repro.bench.harness import Table, percent_less
from repro.bench.throughput import measure_scan_throughput
from repro.bench.virtualization import CacheModel
from repro.core.combined import CombinedAutomaton
from repro.workloads.patterns import random_split, to_pattern_list

from benchmarks.conftest import run_once


def _full_table_bytes(automaton):
    """Space of the full-table AC representation (Table 2's unit)."""
    return automaton.num_states * 256 * 4


def _measure_interleaved(automata, trace, cache, rounds=3):
    """Measure several automata round-robin so that CPU frequency drift
    hits every configuration equally; report the per-config best round."""
    samples = {name: [] for name in automata}
    for name, automaton in automata.items():  # warmup pass
        for payload in trace.payloads[:20]:
            automaton.scan(payload)
    for _ in range(rounds):
        for name, automaton in automata.items():
            scan = automaton.scan
            result = measure_scan_throughput(
                lambda p, scan=scan: scan(p), trace.payloads, repeat=2
            )
            samples[name].append(result.mbps)
    return {
        name: cache.effective_mbps(
            max(values), _full_table_bytes(automata[name])
        )
        for name, values in samples.items()
    }


def test_table2_combined_vs_separate(benchmark, snort_corpus, http_trace):
    def experiment():
        cache = CacheModel()
        snort1, snort2 = random_split(snort_corpus, parts=2, seed=4)
        automaton1 = CombinedAutomaton({1: to_pattern_list(snort1)})
        automaton2 = CombinedAutomaton({2: to_pattern_list(snort2)})
        combined = CombinedAutomaton(
            {1: to_pattern_list(snort1), 2: to_pattern_list(snort2)}
        )
        automata = {
            "Snort1": automaton1,
            "Snort2": automaton2,
            "Snort1+Snort2": combined,
        }
        throughputs = _measure_interleaved(automata, http_trace, cache)
        rows = {
            "Snort1": (
                len(snort1),
                _full_table_bytes(automaton1) / 2**20,
                throughputs["Snort1"],
            ),
            "Snort2": (
                len(snort2),
                _full_table_bytes(automaton2) / 2**20,
                throughputs["Snort2"],
            ),
            "Snort1+Snort2": (
                combined.num_distinct_patterns,
                _full_table_bytes(combined) / 2**20,
                throughputs["Snort1+Snort2"],
            ),
        }
        table = Table(
            "Table 2: separate middleboxes vs one virtual DPI",
            ["Sets", "Patterns", "Space [MB]", "Throughput [Mbps]"],
        )
        for name, (patterns, space, mbps) in rows.items():
            table.add_row(name, patterns, space, mbps)
        table.print()
        return rows

    rows = run_once(benchmark, experiment)
    patterns1, space1, mbps1 = rows["Snort1"]
    patterns2, space2, mbps2 = rows["Snort2"]
    patterns_c, space_c, mbps_c = rows["Snort1+Snort2"]

    # The halves partition the corpus; the combined automaton holds all.
    assert patterns1 + patterns2 == 4356
    assert patterns_c == 4356

    # Space: one combined automaton is smaller than two separate ones
    # (shared states), but bigger than either half.
    assert space_c < space1 + space2
    assert space_c > max(space1, space2)

    # Throughput: the combined engine loses moderately to each half — the
    # paper measures 12 % less; accept anything below 35 %, and require a
    # real loss (the doubled working set cannot be free).
    for separate in (mbps1, mbps2):
        loss = percent_less(mbps_c, separate)
        assert 3.0 < loss < 35.0, f"combined lost {loss:.1f}% (paper: ~12%)"
