"""What a matched packet may cost on the result path, as exact call counts.

Timing cannot be asserted on a shared box; the number of reports encoded,
result packets built, headers copied, reports decoded and regex confirmations
run per packet can, and those are what the result path's cost is made of.
The packets are the ledger's own: ``small-matchdense`` at its quick size.
"""

import pytest

from perf.workloads import WORKLOADS
from repro.core import instance as instance_module
from repro.core.regex import ANCHOR_ID_BASE, RegexPreFilter
from repro.core.reports import MatchReport
from repro.core.scanner import VirtualScanner
from repro.net.packet import IPv4Header

PACKETS = 200


class _Counts:
    def __init__(self) -> None:
        self.encode = self.build_result_packet = self.headers = self.decode = 0
        self.confirm_anchor_sets = []
        self.anchored_lists = 0  # (packet, middlebox) raw lists holding an anchor


def _counting(monkeypatch, counts: _Counts) -> None:
    def count(owner, attribute, note):
        raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        function = raw.__func__ if isinstance(raw, classmethod) else raw

        def counted(*args, **kwargs):
            result = function(*args, **kwargs)
            note(args, result)
            return result

        monkeypatch.setattr(
            owner, attribute, classmethod(counted) if isinstance(raw, classmethod) else counted
        )

    def bump(name):
        return lambda args, result: setattr(counts, name, getattr(counts, name) + 1)

    def note_scan(args, result):
        counts.anchored_lists += sum(
            any(pattern_id >= ANCHOR_ID_BASE for pattern_id, _ in raw)
            for raw in result.matches.values()
        )

    count(MatchReport, "encode", bump("encode"))
    count(MatchReport, "decode", bump("decode"))
    count(instance_module, "build_result_packet", bump("build_result_packet"))
    count(IPv4Header, "__post_init__", bump("headers"))
    count(
        RegexPreFilter,
        "confirm",
        lambda args, result: counts.confirm_anchor_sets.append(set(args[3])),
    )
    count(VirtualScanner, "scan_packet", note_scan)


def _drive(system, inputs, state) -> dict:
    """The ledger's offer loop over the first packets, keeping what the
    assertions need to see."""
    consumers = {
        chain_id: [system.functions[name].process for name in names]
        for chain_id, names in inputs.chains.items()
    }
    matched = served = 0
    for index in range(PACKETS):
        packet = state.packets[index]
        header = packet.ip
        chain = consumers[inputs.flows[inputs.schedule[index]][0]]
        out = system.dpi.process(packet)
        if len(out) == 2:
            matched += 1
            served += len(chain)
            data, result = out
            assert data is packet and data.is_marked_matched
            # The result packet shares the header the data packet arrived
            # with; the mark is the matched packet's one header copy.
            assert result.ip is header and not result.is_marked_matched
        else:
            assert out == [packet] and packet.ip is header
        for consume in chain:
            forwarded = []
            for each in out:
                forwarded += consume(each)
            out = forwarded
        assert [p for p in out if not p.is_result_packet] == [packet]
    return {"matched": matched, "served": served}


@pytest.fixture(scope="module")
def bench():
    workload = WORKLOADS["small-matchdense"]
    inputs = workload.generate(7, quick=True)
    assert inputs.packets >= PACKETS
    return workload, inputs, workload.build(inputs)


def test_result_path_call_budget(bench, monkeypatch):
    workload, inputs, system = bench
    passes = []
    for pass_index in range(2):
        state = workload.prepare(system, inputs, pass_index)
        counts = _Counts()
        with monkeypatch.context() as patch:
            _counting(patch, counts)
            seen = _drive(system, inputs, state)
        workload.finish(system, inputs, state)
        matched = seen["matched"]
        assert 0 < matched < PACKETS
        assert counts.encode == matched
        assert counts.build_result_packet == matched
        assert counts.headers == matched  # one on the data packet, none on the result
        assert counts.decode == seen["served"]  # one per (matched packet, consumer)
        # confirm runs only for a middlebox whose raw list holds an anchor
        assert all(counts.confirm_anchor_sets)
        assert len(counts.confirm_anchor_sets) == counts.anchored_lists > 0
        for function in system.functions.values():
            assert function.corrupt_reports == 0
        passes.append((seen, vars(counts)))
    assert passes[0] == passes[1]  # the counts repeat exactly
