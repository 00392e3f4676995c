"""What a packet may cost on the figure-5 network path, as exact counts.

Timing cannot be asserted on a shared box; the simulator events, wire-length
computations, packet copies, trace spans and span objects a packet costs
can, and those are what the simulated network's overhead is made of.  The
packets are the ledger's own: ``fig5-sim`` at its quick size, driven by its
own offer loop.
"""

import pytest

from perf.workloads import WORKLOADS
from repro.core import instance as instance_module
from repro.net.packet import Packet
from repro.telemetry.tracing import Tracer, TraceSpan

#: Per packet, on these inputs (17.7 and 3.43 read here).  The link
#: schedules no event on an idle wire (the busy-flag link cost 31.0 events
#: per packet), and the data path computes a wire length once per length
#: change, not at every reader (66.6 calls).
EVENTS_PER_PACKET = 18
WIRE_LENGTHS_PER_PACKET = 3.5
#: Every span the product recorded before the network path was trimmed:
#: the speed-up may not come from observing less.
SPANS = 10_500


class _Counts:
    def __init__(self) -> None:
        self.wire_length = self.copy = self.spans = self.result_packets = 0
        self.span_objects = 0


def _counting(monkeypatch, counts: _Counts) -> None:
    def count(owner, attribute, name):
        raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        function = raw.fget if isinstance(raw, property) else raw

        def counted(*args, **kwargs):
            setattr(counts, name, getattr(counts, name) + 1)
            return function(*args, **kwargs)

        monkeypatch.setattr(
            owner, attribute, property(counted) if isinstance(raw, property) else counted
        )

    count(Packet, "wire_length", "wire_length")
    count(Packet, "copy", "copy")
    count(Tracer, "start_span", "spans")
    count(TraceSpan, "__init__", "span_objects")
    count(instance_module, "build_result_packet", "result_packets")


class _Cursor:
    packet_id = -1


@pytest.fixture(scope="module")
def bench():
    workload = WORKLOADS["fig5-sim"]
    inputs = workload.generate(7, quick=True)
    return workload, inputs, workload.build(inputs)


def test_network_path_call_budget(bench, monkeypatch):
    workload, inputs, system = bench
    for pass_index in range(2):
        state = workload.prepare(system, inputs, pass_index)
        counts = _Counts()
        with monkeypatch.context() as patch:
            _counting(patch, counts)
            workload.offer(system, inputs, state, lambda function: function, _Cursor())
        failed, failure = workload.check(system, inputs, state)
        workload.finish(system, inputs, state)
        packets = inputs.packets
        assert not failed, failure
        assert state.extra["events"] <= EVENTS_PER_PACKET * packets
        assert counts.wire_length <= WIRE_LENGTHS_PER_PACKET * packets
        assert counts.spans == SPANS
        # A span is a row: recording one builds no span object.
        assert counts.span_objects == 0
        # Switches forward the packet they received and copy only on fan-out,
        # which the figure-5 tables never do: the result packets are the
        # only copies (one per output was 6,713 for these 148).
        assert 0 < counts.result_packets
        assert counts.copy <= counts.result_packets
