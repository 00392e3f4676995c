"""Figure 9 — pipelined middleboxes vs two virtual-DPI instances.

Scenario (paper Figure 2): traffic must traverse middlebox A (pattern set
P_A) and middlebox B (pattern set P_B), one machine each.

* **Baseline**: each machine scans with its own set; every packet passes
  both, so the pipeline runs at the *slower* machine's rate.
* **Virtual DPI**: both machines run the *combined* automaton; each packet
  is scanned once on either machine, so capacity is the *sum* of the two.

The paper reports the virtual DPI at least **86 % faster** for the
Snort1/Snort2 split (Figure 9(a)) and at least **67 % faster** for full
Snort + ClamAV (Figure 9(b)).
"""

from __future__ import annotations

from repro.bench.harness import Series, Table, percent_faster
from repro.bench.throughput import pipeline_throughput, replicated_throughput
from repro.bench.virtualization import CacheModel
from repro.core.combined import CombinedAutomaton
from repro.workloads.patterns import random_split, to_pattern_list

from benchmarks.conftest import (
    CLAMAV_BENCH_COUNT,
    interleaved_throughput,
    run_once,
)

SNORT_SWEEP = [500, 1000, 2000, 4356]
MIXED_SWEEP_FRACTIONS = [0.25, 0.5, 1.0]


def _compare(set_a, set_b, trace, cache):
    """(pipeline Mbps, virtual-DPI Mbps) for one pattern-set pair."""
    automata = {
        "a": CombinedAutomaton({1: to_pattern_list(set_a)}),
        "b": CombinedAutomaton({2: to_pattern_list(set_b)}),
        "combined": CombinedAutomaton(
            {1: to_pattern_list(set_a), 2: to_pattern_list(set_b)}
        ),
    }
    raw = interleaved_throughput(automata, trace.payloads)
    modeled = {
        name: cache.effective_mbps(
            raw[name], automata[name].num_states * 256 * 4
        )
        for name in automata
    }
    baseline = pipeline_throughput([modeled["a"], modeled["b"]])
    virtual = replicated_throughput(modeled["combined"], instances=2)
    return baseline, virtual


def test_fig9a_snort_split(benchmark, snort_corpus, http_trace):
    def experiment():
        cache = CacheModel()
        baseline_series = Series("Two separate middleboxes")
        virtual_series = Series("Two virtual DPI instances")
        for total in SNORT_SWEEP:
            set_a, set_b = random_split(snort_corpus[:total], parts=2, seed=4)
            baseline, virtual = _compare(set_a, set_b, http_trace, cache)
            baseline_series.append(total, baseline)
            virtual_series.append(total, virtual)
        table = Table(
            "Figure 9(a): Snort1/Snort2 pipeline vs virtual DPI [Mbps]",
            ["total patterns", "separate (pipeline)", "virtual DPI", "gain %"],
        )
        for index, total in enumerate(SNORT_SWEEP):
            table.add_row(
                total,
                baseline_series.ys[index],
                virtual_series.ys[index],
                percent_faster(
                    virtual_series.ys[index], baseline_series.ys[index]
                ),
            )
        table.print()
        from repro.bench.harness import plot_series_together

        print()
        print(plot_series_together([baseline_series, virtual_series]))
        return baseline_series, virtual_series

    baseline_series, virtual_series = run_once(benchmark, experiment)
    for baseline, virtual in zip(baseline_series.ys, virtual_series.ys):
        gain = percent_faster(virtual, baseline)
        # Paper: at least 86 % faster; allow measurement slack down to 45 %.
        assert gain > 45.0, f"virtual DPI only {gain:.1f}% faster"
    # At small pattern counts the combined set is nearly free, so the gain
    # approaches the full 2x (100 %) somewhere along the sweep.
    best_gain = max(
        percent_faster(virtual, baseline)
        for baseline, virtual in zip(baseline_series.ys, virtual_series.ys)
    )
    assert best_gain > 70.0


def test_fig9b_snort_plus_clamav(benchmark, snort_corpus, clamav_corpus, http_trace):
    def experiment():
        cache = CacheModel()
        baseline_series = Series("Two separate middleboxes")
        virtual_series = Series("Two virtual DPI instances")
        totals = []
        for fraction in MIXED_SWEEP_FRACTIONS:
            snort_part = snort_corpus[: int(len(snort_corpus) * fraction)]
            clam_part = clamav_corpus[: int(len(clamav_corpus) * fraction)]
            totals.append(len(snort_part) + len(clam_part))
            baseline, virtual = _compare(snort_part, clam_part, http_trace, cache)
            baseline_series.append(totals[-1], baseline)
            virtual_series.append(totals[-1], virtual)
        table = Table(
            "Figure 9(b): full Snort + ClamAV pipeline vs virtual DPI [Mbps]"
            + (
                ""
                if CLAMAV_BENCH_COUNT == 31827
                else f"  (ClamAV scaled to {CLAMAV_BENCH_COUNT} patterns)"
            ),
            ["total patterns", "separate (pipeline)", "virtual DPI", "gain %"],
        )
        for index, total in enumerate(totals):
            table.add_row(
                total,
                baseline_series.ys[index],
                virtual_series.ys[index],
                percent_faster(
                    virtual_series.ys[index], baseline_series.ys[index]
                ),
            )
        table.print()
        return baseline_series, virtual_series

    baseline_series, virtual_series = run_once(benchmark, experiment)
    for baseline, virtual in zip(baseline_series.ys, virtual_series.ys):
        gain = percent_faster(virtual, baseline)
        # Paper: more than 67 % faster; allow slack down to 40 %.
        assert gain > 40.0, f"virtual DPI only {gain:.1f}% faster"
