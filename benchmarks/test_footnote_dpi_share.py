"""Section 1, footnote 1 — "DPI slows packet processing by a factor of at
least 2.9" (measured by the authors on Snort).

We compare a legacy middlebox doing its own scan + rule evaluation against
the same middlebox's rule evaluation alone (what remains once the DPI
service supplies the matches via the results plugin).  The ratio between the
two is the share the paper's footnote attributes to DPI.
"""

from __future__ import annotations

import time

from repro.bench.harness import Table
from repro.core.reports import MatchReport
from repro.middleboxes.legacy import LegacyDPIMiddlebox
from repro.middleboxes.plugin import DPIResultsPlugin
from repro.net.addresses import IPv4Address, MACAddress
from repro.net.packet import make_tcp_packet

from benchmarks.conftest import run_once


def _build_middlebox(patterns):
    middlebox = LegacyDPIMiddlebox(middlebox_id=1, name="snort")
    for rule_id, pattern in enumerate(patterns):
        middlebox.add_literal_rule(rule_id, pattern)
    middlebox.build_engine()
    return middlebox


def _packets(trace):
    packets = []
    for payload in trace.payloads:
        packets.append(
            make_tcp_packet(
                MACAddress.from_index(0),
                MACAddress.from_index(1),
                IPv4Address("10.0.0.1"),
                IPv4Address("10.0.0.2"),
                1234,
                80,
                payload=payload,
            )
        )
    return packets


def test_footnote_dpi_processing_share(benchmark, snort_corpus, http_trace):
    def experiment():
        patterns = snort_corpus[:2000]
        with_dpi = _build_middlebox(patterns)
        plugin_host = _build_middlebox(patterns)
        plugin = DPIResultsPlugin(plugin_host)
        packets = _packets(http_trace)

        # Precompute the service's reports (the DPI service does this once,
        # outside the middlebox).
        reports = []
        for packet in packets:
            matches = plugin_host.scan(packet.payload)
            reports.append(MatchReport.from_matches({1: matches}))
        plugin_host.stats.packets_processed = 0  # reset after precompute

        def run_with_dpi():
            for packet in packets:
                with_dpi.process_packet(packet)

        def run_plugin():
            for packet, report in zip(packets, reports):
                plugin.consume_report(packet, report)

        run_with_dpi()  # warmup
        run_plugin()

        started = time.perf_counter()
        for _ in range(3):
            run_with_dpi()
        dpi_seconds = time.perf_counter() - started

        started = time.perf_counter()
        for _ in range(3):
            run_plugin()
        plugin_seconds = time.perf_counter() - started

        factor = dpi_seconds / plugin_seconds
        table = Table(
            "Footnote 1: middlebox processing time with vs without DPI",
            ["configuration", "seconds (3 passes)", "slowdown"],
        )
        table.add_row("rule evaluation only (DPI as a service)", plugin_seconds, 1.0)
        table.add_row("embedded DPI + rule evaluation", dpi_seconds, factor)
        table.print()
        return factor

    factor = run_once(benchmark, experiment)
    # Paper: at least 2.9x. Require a clear multi-x slowdown.
    assert factor > 2.0, f"DPI slowdown factor only {factor:.2f}"
