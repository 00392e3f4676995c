"""Ablation — the three result-passing modes of Section 4.2.

For the same scanned trace, compare the bytes each mode puts on the wire
beyond the original packets:

* dedicated result packets (the paper's prototype): a full extra packet per
  matched data packet;
* NSH metadata: the encoded report plus the 8-byte NSH base header,
  carried on the data packet itself;
* tag encoding: 4 bytes per encoded record, silently capped (the "messy"
  option).

The paper also notes that since >90 % of packets have no matches, all modes
cost nothing for most traffic.
"""

from __future__ import annotations

from repro.bench.harness import Table
from repro.core.instance import DPIServiceFunction, DPIServiceInstance, InstanceConfig
from repro.core.scanner import MiddleboxProfile
from repro.net.addresses import IPv4Address, MACAddress
from repro.net.packet import VlanTag, make_tcp_packet
from repro.workloads.patterns import to_pattern_list

from benchmarks.conftest import run_once

CHAIN = 100


def _make_function(snort_corpus, mode):
    instance = DPIServiceInstance(
        InstanceConfig(
            pattern_sets={1: to_pattern_list(snort_corpus[:2000])},
            profiles={1: MiddleboxProfile(1, name="ids")},
            chain_map={CHAIN: (1,)},
        )
    )
    return DPIServiceFunction(instance, result_mode=mode)


def _packets(trace):
    packets = []
    for payload in trace.payloads:
        packet = make_tcp_packet(
            MACAddress.from_index(0),
            MACAddress.from_index(1),
            IPv4Address("10.0.0.1"),
            IPv4Address("10.0.0.2"),
            1234,
            80,
            payload=payload,
        )
        packet.push_vlan(VlanTag(vid=CHAIN))
        packets.append(packet)
    return packets


def test_ablation_result_modes(benchmark, snort_corpus, campus_trace):
    def experiment():
        baseline_bytes = sum(
            packet.wire_length for packet in _packets(campus_trace)
        )
        overheads = {}
        matched = {}
        for mode in ("result_packet", "nsh", "tags"):
            function = _make_function(snort_corpus, mode)
            total = 0
            matched_packets = 0
            for packet in _packets(campus_trace):
                outputs = function.process(packet)
                total += sum(p.wire_length for p in outputs)
                if packet.is_marked_matched:
                    matched_packets += 1
            overheads[mode] = total - baseline_bytes
            matched[mode] = matched_packets
        table = Table(
            "Ablation: result-passing modes (bytes beyond the data packets)",
            ["mode", "overhead [bytes]", "matched packets"],
        )
        for mode, overhead in overheads.items():
            table.add_row(mode, overhead, matched[mode])
        table.print()
        return overheads, matched, len(campus_trace.payloads)

    overheads, matched, total_packets = run_once(benchmark, experiment)

    # All modes agree on which packets matched.
    assert len(set(matched.values())) == 1
    matched_count = next(iter(matched.values()))
    # Most packets are matchless, so overhead exists but is bounded.
    assert matched_count < total_packets * 0.2

    # A dedicated packet repeats all headers; NSH carries only the report
    # plus a small header; tags are the smallest but lossy.
    assert overheads["result_packet"] > overheads["nsh"] > overheads["tags"]
    # Per matched packet, the dedicated-packet overhead is at least the
    # fixed header stack (Ethernet + VLAN + IP + TCP = 58 bytes).
    assert overheads["result_packet"] >= matched_count * 58
