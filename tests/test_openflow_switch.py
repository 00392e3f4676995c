"""Unit tests for flow tables, matches, actions and the switch."""

import pytest

from repro.net.addresses import IPv4Address, MACAddress
from repro.net.links import Link
from repro.net.openflow import (
    ActionType,
    FlowAction,
    FlowEntry,
    FlowMatch,
    FlowTable,
)
from repro.net.packet import VlanTag, make_tcp_packet
from repro.net.simulator import Simulator
from repro.net.switch import Switch


def make_packet(payload=b"x", dst_index=1, dst_port=80):
    return make_tcp_packet(
        MACAddress.from_index(0),
        MACAddress.from_index(dst_index),
        IPv4Address("10.0.0.1"),
        IPv4Address("10.0.0.2"),
        1234,
        dst_port,
        payload=payload,
    )


class TestFlowMatch:
    def test_wildcard_matches_everything(self):
        assert FlowMatch().matches(make_packet(), in_port=3)

    def test_in_port(self):
        match = FlowMatch(in_port=2)
        assert match.matches(make_packet(), 2)
        assert not match.matches(make_packet(), 3)

    def test_eth_fields(self):
        packet = make_packet()
        assert FlowMatch(eth_src=packet.eth.src).matches(packet, 1)
        assert not FlowMatch(eth_dst=MACAddress.from_index(9)).matches(packet, 1)

    def test_vlan_vid(self):
        packet = make_packet()
        assert FlowMatch(vlan_vid=FlowMatch.NO_VLAN).matches(packet, 1)
        assert not FlowMatch(vlan_vid=10).matches(packet, 1)
        packet.push_vlan(VlanTag(vid=10))
        assert FlowMatch(vlan_vid=10).matches(packet, 1)
        assert not FlowMatch(vlan_vid=FlowMatch.NO_VLAN).matches(packet, 1)

    def test_outer_vlan_matched(self):
        packet = make_packet()
        packet.push_vlan(VlanTag(vid=10))
        packet.push_vlan(VlanTag(vid=20))
        assert FlowMatch(vlan_vid=20).matches(packet, 1)
        assert not FlowMatch(vlan_vid=10).matches(packet, 1)

    def test_l3_l4_fields(self):
        packet = make_packet(dst_port=443)
        assert FlowMatch(
            ip_src=IPv4Address("10.0.0.1"), dst_port=443, ip_proto=6
        ).matches(packet, 1)
        assert not FlowMatch(dst_port=80).matches(packet, 1)


class TestFlowActions:
    def test_push_and_set_vlan(self):
        packet = make_packet()
        FlowAction.push_vlan(100).apply(packet)
        assert packet.outer_vlan.vid == 100
        FlowAction.set_vlan_vid(200).apply(packet)
        assert packet.outer_vlan.vid == 200

    def test_set_vlan_on_untagged_raises(self):
        with pytest.raises(ValueError):
            FlowAction.set_vlan_vid(5).apply(make_packet())

    def test_pop_vlan(self):
        packet = make_packet()
        packet.push_vlan(VlanTag(vid=1))
        FlowAction.pop_vlan().apply(packet)
        assert packet.outer_vlan is None

    def test_mpls_actions(self):
        packet = make_packet()
        FlowAction.push_mpls(7).apply(packet)
        assert packet.outer_mpls.label == 7
        FlowAction.pop_mpls().apply(packet)
        assert packet.outer_mpls is None


class TestFlowTable:
    def test_priority_order(self):
        table = FlowTable()
        low = FlowEntry(FlowMatch(), [FlowAction.drop()], priority=1)
        high = FlowEntry(FlowMatch(), [FlowAction.output(1)], priority=10)
        table.install(low)
        table.install(high)
        hit = table.lookup(make_packet(), 1)
        assert hit is high

    def test_equal_priority_first_installed_wins(self):
        table = FlowTable()
        first = FlowEntry(FlowMatch(), [FlowAction.output(1)], priority=5)
        second = FlowEntry(FlowMatch(), [FlowAction.output(2)], priority=5)
        table.install(first)
        table.install(second)
        assert table.lookup(make_packet(), 1) is first

    def test_miss_returns_none(self):
        table = FlowTable()
        table.install(FlowEntry(FlowMatch(in_port=9), [FlowAction.drop()]))
        assert table.lookup(make_packet(), 1) is None

    def test_counters_updated(self):
        table = FlowTable()
        entry = table.install(FlowEntry(FlowMatch(), [FlowAction.drop()]))
        packet = make_packet()
        table.lookup(packet, 1)
        assert entry.packets_matched == 1
        assert entry.bytes_matched == packet.wire_length

    def test_remove_by_id(self):
        table = FlowTable()
        entry = table.install(FlowEntry(FlowMatch(), [FlowAction.drop()]))
        assert table.remove(entry.entry_id)
        assert not table.remove(entry.entry_id)
        assert len(table) == 0


class _HostStub:
    def __init__(self):
        self.received = []

    def receive(self, packet, port):
        self.received.append(packet)

    def attach_link(self, port, link):
        pass


def wire(sim, switch, port, node):
    link = Link(sim)
    switch.attach_link(port, link)
    link.attach(switch, port, node, 1)
    return link


class TestSwitch:
    def test_forwarding(self):
        sim = Simulator()
        switch = Switch(sim, "s1")
        a, b = _HostStub(), _HostStub()
        link_a = wire(sim, switch, 1, a)
        wire(sim, switch, 2, b)
        switch.flow_mod(
            FlowEntry(FlowMatch(in_port=1), [FlowAction.output(2)], priority=1)
        )
        link_a.send_from(a, make_packet())
        sim.run()
        assert len(b.received) == 1
        assert switch.stats.packets_forwarded == 1

    def test_miss_without_controller_drops(self):
        sim = Simulator()
        switch = Switch(sim, "s1")
        a = _HostStub()
        link = wire(sim, switch, 1, a)
        link.send_from(a, make_packet())
        sim.run()
        assert switch.stats.table_misses == 1
        assert switch.stats.packets_dropped == 1

    def test_flood_excludes_in_port(self):
        sim = Simulator()
        switch = Switch(sim, "s1")
        a, b, c = _HostStub(), _HostStub(), _HostStub()
        link_a = wire(sim, switch, 1, a)
        wire(sim, switch, 2, b)
        wire(sim, switch, 3, c)
        switch.flow_mod(FlowEntry(FlowMatch(), [FlowAction.flood()]))
        link_a.send_from(a, make_packet())
        sim.run()
        assert len(a.received) == 0
        assert len(b.received) == 1 and len(c.received) == 1

    def test_header_rewrite_then_output(self):
        sim = Simulator()
        switch = Switch(sim, "s1")
        a, b = _HostStub(), _HostStub()
        link_a = wire(sim, switch, 1, a)
        wire(sim, switch, 2, b)
        switch.flow_mod(
            FlowEntry(
                FlowMatch(in_port=1),
                [FlowAction.push_vlan(42), FlowAction.output(2)],
            )
        )
        packet = make_packet()
        link_a.send_from(a, packet)
        sim.run()
        (received,) = b.received
        assert received.outer_vlan.vid == 42
        # The last output forwards the received object, its memo intact.
        assert received is packet
        assert received.length_memo == received.wire_length

    def test_drop_action(self):
        sim = Simulator()
        switch = Switch(sim, "s1")
        a = _HostStub()
        link = wire(sim, switch, 1, a)
        switch.flow_mod(FlowEntry(FlowMatch(), [FlowAction.drop()]))
        link.send_from(a, make_packet())
        sim.run()
        assert switch.stats.packets_dropped == 1

    def test_output_to_missing_port_drops(self):
        sim = Simulator()
        switch = Switch(sim, "s1")
        a = _HostStub()
        link = wire(sim, switch, 1, a)
        switch.flow_mod(FlowEntry(FlowMatch(), [FlowAction.output(99)]))
        link.send_from(a, make_packet())
        sim.run()
        assert switch.stats.packets_dropped == 1

    def test_duplicate_port_rejected(self):
        sim = Simulator()
        switch = Switch(sim, "s1")
        wire(sim, switch, 1, _HostStub())
        with pytest.raises(ValueError):
            switch.attach_link(1, Link(sim))

    def test_packet_in_to_controller(self):
        sim = Simulator()
        switch = Switch(sim, "s1")
        a = _HostStub()
        link = wire(sim, switch, 1, a)
        events = []

        class ControllerStub:
            def packet_in(self, sw, packet, in_port):
                events.append((sw.name, packet.packet_id, in_port))

        switch.set_controller(ControllerStub())
        packet = make_packet()
        link.send_from(a, packet)
        sim.run()
        assert events == [("s1", packet.packet_id, 1)]

    def test_forwarded_copies_are_independent(self):
        """Flooded copies must not share mutable tag stacks."""
        sim = Simulator()
        switch = Switch(sim, "s1")
        a, b, c = _HostStub(), _HostStub(), _HostStub()
        link_a = wire(sim, switch, 1, a)
        wire(sim, switch, 2, b)
        wire(sim, switch, 3, c)
        switch.flow_mod(FlowEntry(FlowMatch(), [FlowAction.flood()]))
        packet = make_packet()
        link_a.send_from(a, packet)
        sim.run()
        assert b.received[0] is not packet and c.received[0] is not packet
        b.received[0].push_vlan(VlanTag(vid=5))
        assert c.received[0].outer_vlan is None


class TestCopyOnFanOut:
    """The switch owns a packet it receives: its last output sends that very
    object, and only an output with more actions after it sends a copy."""

    def _switch(self, ports=3):
        sim = Simulator()
        switch = Switch(sim, "s1")
        hosts = [_HostStub() for _ in range(ports)]
        links = [wire(sim, switch, port, host) for port, host in enumerate(hosts, 1)]
        return sim, switch, hosts, links

    def _tagged(self, vid=10):
        packet = make_packet()
        packet.push_vlan(VlanTag(vid=vid))
        return packet

    def test_output_then_rewrite_then_output(self):
        sim, switch, (a, b, c), (link_a, _, _) = self._switch()
        switch.flow_mod(FlowEntry(FlowMatch(in_port=1), [
            FlowAction.output(2), FlowAction.set_vlan_vid(20), FlowAction.output(3),
        ]))
        packet = self._tagged(10)
        link_a.send_from(a, packet)
        sim.run()
        (first,), (second,) = b.received, c.received
        assert first.outer_vlan.vid == 10
        assert second.outer_vlan.vid == 20
        assert first is not second
        assert second is packet
        assert first.vlan_stack is not second.vlan_stack

    def test_back_to_back_outputs_do_not_share_headers(self):
        sim, switch, (a, b, c), (link_a, _, _) = self._switch()
        switch.flow_mod(FlowEntry(FlowMatch(in_port=1), [
            FlowAction.output(2), FlowAction.output(3),
        ]))
        link_a.send_from(a, self._tagged(10))
        sim.run()
        b.received[0].push_vlan(VlanTag(vid=5))
        assert c.received[0].outer_vlan.vid == 10

    def test_controller_then_output_do_not_share_headers(self):
        sim, switch, (a, b, c), (link_a, _, _) = self._switch()

        class LearningController:
            def packet_in(self, sw, packet, in_port):
                sw.packet_out(packet, [FlowAction.output(3)])

        switch.set_controller(LearningController())
        switch.flow_mod(FlowEntry(FlowMatch(in_port=1), [
            FlowAction.controller(), FlowAction.output(2),
        ]))
        packet = self._tagged(10)
        link_a.send_from(a, packet)
        sim.run()
        (to_controller,), (direct,) = c.received, b.received
        assert direct is packet
        assert to_controller is not packet
        direct.push_vlan(VlanTag(vid=5))
        assert to_controller.outer_vlan.vid == 10

    def test_packet_out_copies_only_on_fan_out(self):
        sim, switch, (_, b, c), _ = self._switch()
        packet = self._tagged(10)
        switch.packet_out(packet, [
            FlowAction.output(2), FlowAction.push_vlan(7), FlowAction.output(3),
        ])
        sim.run()
        (first,), (second,) = b.received, c.received
        assert first is not packet and first.outer_vlan.vid == 10
        assert second is packet and second.outer_vlan.vid == 7
        single = make_packet()
        switch.packet_out(single, [FlowAction.output(2)])
        sim.run()
        assert b.received[-1] is single
