"""The link's event-free idle path against the algorithm it replaced.

``_Direction`` used to keep a busy flag and schedule a ``link-free`` event
after every transmission, even on an idle wire.  It now keeps the time the
wire frees up and schedules a drain event only under backlog.  The old
algorithm is copied below as the reference model; both are driven with the
same random send schedules and must deliver the same packets at the same
simulated times (the same floats, not approximately), in the same order,
with the same counters and drops.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addresses import IPv4Address, MACAddress
from repro.net.links import Link, LinkStats
from repro.net.packet import make_tcp_packet
from repro.net.simulator import Simulator

#: 2**20 bit/s: a packet of 2**k bytes takes an exact binary fraction of a
#: second, so sends on a 2**-11 s grid land exactly on the time the wire
#: frees up.
BANDWIDTH = float(2**20)
GRID = 2.0**-11
HEADERS = 54  # Ethernet + IPv4 + TCP, no tags


class _ReferenceDirection:
    """The busy-flag algorithm: a ``link-free`` event after every send."""

    def __init__(self, simulator, bandwidth_bps, propagation_delay, queue_capacity):
        self._simulator = simulator
        self._bandwidth_bps = bandwidth_bps
        self._propagation_delay = propagation_delay
        self._queue = deque()
        self._queue_capacity = queue_capacity
        self._busy = False
        self.stats = LinkStats()
        self.deliver = None
        self.label = None

    def drop(self):
        self.stats.packets_dropped += 1

    def send(self, packet):
        if len(self._queue) >= self._queue_capacity:
            self.stats.packets_dropped += 1
            return False
        self._queue.append(packet)
        if not self._busy:
            self._transmit_next()
        return True

    def _transmit_next(self):
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        packet = self._queue.popleft()
        transmit_time = packet.wire_length * 8 / self._bandwidth_bps
        self.stats.packets_sent += 1
        self.stats.bytes_sent += packet.wire_length

        def arrive():
            if self.deliver is not None:
                self.deliver(packet)

        self._simulator.schedule(
            transmit_time + self._propagation_delay, arrive, label="link-arrive"
        )
        self._simulator.schedule(transmit_time, self._transmit_next, label="link-free")


class _Sink:
    def __init__(self, simulator, name):
        self.simulator = simulator
        self.name = name
        self.arrivals = []

    def receive(self, packet, port):
        self.arrivals.append((self.simulator.now, packet.packet_id))


def _packet(packet_id, payload_bytes):
    packet = make_tcp_packet(
        MACAddress.from_index(0),
        MACAddress.from_index(1),
        IPv4Address("10.0.0.1"),
        IPv4Address("10.0.0.2"),
        1,
        2,
        payload=b"x" * payload_bytes,
    )
    packet.packet_id = packet_id
    return packet


def _wire(reference, propagation_delay, queue_capacity):
    simulator = Simulator()
    link = Link(simulator, BANDWIDTH, propagation_delay, queue_capacity)
    if reference:
        link._forward, link._backward = (
            _ReferenceDirection(simulator, BANDWIDTH, propagation_delay, queue_capacity)
            for _ in range(2)
        )
    a, b = _Sink(simulator, "a"), _Sink(simulator, "b")
    link.attach(a, 1, b, 2)
    return simulator, link, a, b


def _drive(reference, steps, propagation_delay, queue_capacity):
    """Run *steps* on a fresh link; everything the two models must agree on."""
    simulator, link, a, b = _wire(reference, propagation_delay, queue_capacity)
    accepted = []
    at = 0.0
    for index, (gap, kind, payload_bytes) in enumerate(steps):
        at += gap
        if kind == "down":
            simulator.schedule(at, lambda: link.set_admin(False))
        elif kind == "up":
            simulator.schedule(at, lambda: link.set_admin(True))
        else:
            node = a if kind == "a->b" else b
            packet = _packet(index, payload_bytes)
            simulator.schedule(
                at,
                lambda node=node, packet=packet: accepted.append(
                    link.send_from(node, packet)
                ),
            )
    simulator.run()
    return {
        "to_b": b.arrivals,
        "to_a": a.arrivals,
        "accepted": accepted,
        "stats": (link.stats_from(a).snapshot(), link.stats_from(b).snapshot()),
        "clock": simulator.now,
    }


# Payloads that make the wire length a power of two (exact transmit times)
# next to arbitrary ones.
_payloads = st.one_of(
    st.sampled_from([128 - HEADERS, 256 - HEADERS, 512 - HEADERS]),
    st.integers(min_value=0, max_value=400),
)
# Gaps of zero (bursts), on the grid (sends at exactly the free time) and
# arbitrary floats.
_gaps = st.one_of(
    st.just(0.0),
    st.integers(min_value=1, max_value=8).map(lambda k: k * GRID),
    st.floats(min_value=0.0, max_value=0.01, allow_nan=False),
)
_steps = st.lists(
    st.tuples(
        _gaps,
        st.sampled_from(["a->b", "a->b", "b->a", "down", "up"]),
        _payloads,
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(
    steps=_steps,
    propagation_delay=st.sampled_from([0.0, GRID, 50e-6, 0.003]),
    queue_capacity=st.integers(min_value=1, max_value=3),
)
def test_link_matches_the_busy_flag_model(steps, propagation_delay, queue_capacity):
    new = _drive(False, steps, propagation_delay, queue_capacity)
    old = _drive(True, steps, propagation_delay, queue_capacity)
    assert new == old


def test_idle_link_schedules_only_the_arrival():
    simulator, link, a, b = _wire(False, 0.001, 4)
    link.send_from(a, _packet(1, 100))
    assert simulator.pending_events == 1
    simulator.run()
    assert simulator.events_processed == 1 and len(b.arrivals) == 1


def test_backlog_schedules_one_drain_event_per_queued_packet():
    simulator, link, a, b = _wire(False, 0.001, 4)
    for packet_id in range(3):
        link.send_from(a, _packet(packet_id, 100))
    simulator.run()
    assert [packet_id for _, packet_id in b.arrivals] == [0, 1, 2]
    assert simulator.events_processed == 3 + 2  # three arrivals, two drains


def test_reset_under_backlog_does_not_strand_the_link():
    simulator, link, a, b = _wire(False, 0.001, 4)
    for packet_id in range(3):
        link.send_from(a, _packet(packet_id, 100))
    simulator.reset()  # discards the pending drain event
    link.send_from(a, _packet(3, 100))
    simulator.run()
    # The backlog restarts from the rewound clock, in FIFO order, and the
    # packet sent after the reset is delivered behind it.
    assert [packet_id for _, packet_id in b.arrivals] == [1, 2, 3]
    assert link.stats_from(a).packets_sent == 4


def test_reset_mid_transmission_does_not_strand_the_link():
    simulator, link, a, b = _wire(False, 0.001, 4)
    link.send_from(a, _packet(0, 100))
    simulator.reset()  # the wire was busy until a time on the old clock
    link.send_from(a, _packet(1, 100))
    assert simulator.pending_events == 1  # sent at once, no drain needed
    simulator.run()
    assert [packet_id for _, packet_id in b.arrivals] == [1]
