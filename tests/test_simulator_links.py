"""Unit tests for the discrete-event simulator and links."""

import pytest

from repro.net.addresses import IPv4Address, MACAddress
from repro.net.links import Link, LinkNotAttachedError
from repro.net.packet import make_tcp_packet
from repro.net.simulator import Simulator


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("late"))
        sim.schedule(1.0, lambda: order.append("early"))
        sim.run()
        assert order == ["early", "late"]

    def test_ties_break_by_insertion(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("first"))
        sim.schedule(1.0, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second"]

    def test_clock_advances(self):
        sim = Simulator()
        times = []
        sim.schedule(0.5, lambda: times.append(sim.now))
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [0.5, 1.5]

    def test_run_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        processed = sim.run(until=2.0)
        assert processed == 1
        assert fired == [1]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1, 5]

    def test_max_events(self):
        sim = Simulator()
        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, lambda: None)
        assert sim.run(max_events=2) == 2
        assert sim.pending_events == 1

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []

        def outer():
            seen.append(("outer", sim.now))
            sim.schedule(1.0, lambda: seen.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert seen == [("outer", 1.0), ("inner", 2.0)]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)

    def test_reset(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.schedule(1.0, lambda: None)
        sim.reset()
        assert sim.now == 0.0
        assert sim.pending_events == 0


class _Sink:
    def __init__(self):
        self.received = []

    def receive(self, packet, port):
        self.received.append((packet, port))

    def attach_link(self, port, link):
        pass


def make_packet(payload=b"x" * 100):
    return make_tcp_packet(
        MACAddress.from_index(0),
        MACAddress.from_index(1),
        IPv4Address("10.0.0.1"),
        IPv4Address("10.0.0.2"),
        1,
        2,
        payload=payload,
    )


class TestLink:
    def test_delivery_with_latency(self):
        sim = Simulator()
        a, b = _Sink(), _Sink()
        link = Link(sim, bandwidth_bps=8e6, propagation_delay=0.001)
        link.attach(a, 1, b, 2)
        packet = make_packet(b"x" * 100)  # wire length 154
        link.send_from(a, packet)
        sim.run()
        assert len(b.received) == 1
        # 154 bytes * 8 bits / 8e6 bps = 154 us, + 1 ms propagation.
        assert sim.now == pytest.approx(154e-6 + 0.001)

    def test_bidirectional(self):
        sim = Simulator()
        a, b = _Sink(), _Sink()
        link = Link(sim)
        link.attach(a, 1, b, 2)
        link.send_from(a, make_packet())
        link.send_from(b, make_packet())
        sim.run()
        assert len(a.received) == 1 and len(b.received) == 1

    def test_serialization_delay_orders_packets(self):
        sim = Simulator()
        a, b = _Sink(), _Sink()
        link = Link(sim, bandwidth_bps=8e3)  # 1 KB/s: very slow
        link.attach(a, 1, b, 2)
        first, second = make_packet(b"1" * 100), make_packet(b"2" * 100)
        link.send_from(a, first)
        link.send_from(a, second)
        sim.run()
        assert [p.packet_id for p, _ in b.received] == [
            first.packet_id,
            second.packet_id,
        ]

    def test_queue_overflow_drops(self):
        sim = Simulator()
        a, b = _Sink(), _Sink()
        link = Link(sim, queue_capacity=2)
        link.attach(a, 1, b, 2)
        results = [link.send_from(a, make_packet()) for _ in range(4)]
        # First send starts transmitting immediately (leaves the queue),
        # so 3 are accepted and 1 dropped.
        assert results.count(True) == 3
        assert link.stats_from(a).packets_dropped == 1

    def test_stats(self):
        sim = Simulator()
        a, b = _Sink(), _Sink()
        link = Link(sim)
        link.attach(a, 1, b, 2)
        packet = make_packet()
        link.send_from(a, packet)
        sim.run()
        stats = link.stats_from(a)
        assert stats.packets_sent == 1
        assert stats.bytes_sent == packet.wire_length

    def test_unattached_link_rejects_send(self):
        link = Link(Simulator())
        with pytest.raises(RuntimeError):
            link.send_from(_Sink(), make_packet())

    def test_unattached_link_send_is_a_typed_error(self):
        with pytest.raises(LinkNotAttachedError, match="not attached"):
            Link(Simulator()).send_from(_Sink(), make_packet())

    def test_unattached_link_stats_is_a_typed_error(self):
        # Used to be "TypeError: 'NoneType' object is not subscriptable".
        with pytest.raises(LinkNotAttachedError, match="not attached"):
            Link(Simulator()).stats_from(_Sink())

    def test_foreign_node_rejected(self):
        sim = Simulator()
        a, b, c = _Sink(), _Sink(), _Sink()
        link = Link(sim)
        link.attach(a, 1, b, 2)
        with pytest.raises(ValueError):
            link.send_from(c, make_packet())

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Link(Simulator(), bandwidth_bps=0)
        with pytest.raises(ValueError):
            Link(Simulator(), propagation_delay=-1)
