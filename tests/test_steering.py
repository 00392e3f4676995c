"""Unit tests for the traffic steering application (policy chains)."""

import pytest

from repro.net.controller import SDNController
from repro.net.host import NetworkFunction
from repro.net.packet import make_tcp_packet
from repro.net.steering import (
    PolicyChain,
    TrafficAssignment,
    TrafficSteeringApplication,
)
from repro.net.topology import Topology, build_paper_topology


class TagRecorder(NetworkFunction):
    """A middlebox stub that records the tags it sees and forwards."""

    def __init__(self):
        self.seen_vids = []

    def process(self, packet):
        outer = packet.outer_vlan
        self.seen_vids.append(outer.vid if outer else None)
        return [packet]


def build_steered_topology(chain_types=("mb_a", "mb_b")):
    topo = build_paper_topology()
    recorder1, recorder2 = TagRecorder(), TagRecorder()
    topo.hosts["mb1"].set_function(recorder1)
    topo.hosts["mb2"].set_function(recorder2)
    controller = SDNController(topo, learning=False)
    tsa = TrafficSteeringApplication(controller, topo)
    tsa.register_middlebox_instance("mb_a", "mb1")
    tsa.register_middlebox_instance("mb_b", "mb2")
    chain = tsa.add_policy_chain(PolicyChain("c1", tuple(chain_types)))
    tsa.assign_traffic(
        TrafficAssignment(src_host="user1", dst_host="user2", chain_name="c1")
    )
    tsa.realize()
    return topo, tsa, chain, (recorder1, recorder2)


def send(topo, src="user1", dst="user2", payload=b"data"):
    src_host, dst_host = topo.hosts[src], topo.hosts[dst]
    packet = make_tcp_packet(
        src_host.mac, dst_host.mac, src_host.ip, dst_host.ip, 1111, 80,
        payload=payload,
    )
    src_host.send(packet)
    topo.run()
    return packet


class TestPolicyChain:
    def test_with_service_before(self):
        chain = PolicyChain("c", ("fw", "ids", "av"))
        updated = chain.with_service_before("dpi", "ids")
        assert updated.middlebox_types == ("fw", "dpi", "ids", "av")

    def test_with_service_idempotent(self):
        chain = PolicyChain("c", ("dpi", "ids"))
        assert chain.with_service_before("dpi", "ids") is chain

    def test_with_service_unknown_type(self):
        chain = PolicyChain("c", ("ids",))
        with pytest.raises(KeyError):
            chain.with_service_before("dpi", "av")

    def test_without_types(self):
        chain = PolicyChain("c", ("fw", "ids", "av"))
        assert chain.without_types({"ids"}).middlebox_types == ("fw", "av")


class TestSteering:
    def test_packet_traverses_chain_in_order(self):
        topo, tsa, chain, (r1, r2) = build_steered_topology()
        send(topo)
        # Both middleboxes saw the packet; per-segment tagging means hop k
        # observes tag chain_id + k.
        assert r1.seen_vids == [chain.chain_id]
        assert r2.seen_vids == [chain.chain_id + 1]
        # Destination got it untagged.
        received = topo.hosts["user2"].received_packets
        assert len(received) == 1
        assert received[0].outer_vlan is None

    def test_payload_unchanged_through_chain(self):
        topo, _, _, _ = build_steered_topology()
        packet = send(topo, payload=b"precious-payload")
        received = topo.hosts["user2"].received_packets[0]
        assert received.payload == packet.payload

    def test_single_middlebox_chain(self):
        topo, tsa, chain, (r1, r2) = build_steered_topology(chain_types=("mb_a",))
        send(topo)
        assert len(r1.seen_vids) == 1
        assert r2.seen_vids == []

    def test_unassigned_traffic_uses_host_routes(self):
        topo, tsa, _, (r1, r2) = build_steered_topology()
        send(topo, src="user2", dst="user1")  # no chain assigned this way
        assert topo.hosts["user1"].received_packets
        assert r1.seen_vids == []

    def test_chain_ids_allocated_sequentially(self):
        topo = build_paper_topology()
        controller = SDNController(topo, learning=False)
        tsa = TrafficSteeringApplication(controller, topo)
        first = tsa.add_policy_chain(PolicyChain("a", ("x",)))
        second = tsa.add_policy_chain(PolicyChain("b", ("y",)))
        # Each chain owns a tag block of CHAIN_ID_STRIDE contiguous tags.
        assert (
            second.chain_id
            == first.chain_id + TrafficSteeringApplication.CHAIN_ID_STRIDE
        )

    def test_duplicate_chain_name_rejected(self):
        topo = build_paper_topology()
        tsa = TrafficSteeringApplication(SDNController(topo, learning=False), topo)
        tsa.add_policy_chain(PolicyChain("a", ("x",)))
        with pytest.raises(ValueError):
            tsa.add_policy_chain(PolicyChain("a", ("y",)))

    def test_assignment_requires_known_chain(self):
        topo = build_paper_topology()
        tsa = TrafficSteeringApplication(SDNController(topo, learning=False), topo)
        with pytest.raises(KeyError):
            tsa.assign_traffic(
                TrafficAssignment("user1", "user2", "missing-chain")
            )

    def test_unresolvable_chain_raises_at_realize(self):
        topo = build_paper_topology()
        tsa = TrafficSteeringApplication(SDNController(topo, learning=False), topo)
        tsa.add_policy_chain(PolicyChain("c", ("ghost-type",)))
        tsa.assign_traffic(TrafficAssignment("user1", "user2", "c"))
        with pytest.raises(KeyError):
            tsa.realize()

    def test_register_unknown_host_rejected(self):
        topo = build_paper_topology()
        tsa = TrafficSteeringApplication(SDNController(topo, learning=False), topo)
        with pytest.raises(KeyError):
            tsa.register_middlebox_instance("ids", "nohost")


class TestChainListeners:
    def test_listener_notified_on_add_and_rewrite(self):
        topo = build_paper_topology()
        tsa = TrafficSteeringApplication(SDNController(topo, learning=False), topo)

        class Listener:
            def __init__(self):
                self.updates = []

            def policy_chains_changed(self, chains):
                self.updates.append(
                    {name: c.middlebox_types for name, c in chains.items()}
                )

        listener = Listener()
        tsa.add_chain_listener(listener)
        assert listener.updates == [{}]
        tsa.add_policy_chain(PolicyChain("c", ("ids",)))
        assert listener.updates[-1] == {"c": ("ids",)}
        tsa.rewrite_chain("c", ("dpi", "ids"))
        assert listener.updates[-1] == {"c": ("dpi", "ids")}

    def test_rewrite_keeps_chain_id(self):
        topo = build_paper_topology()
        tsa = TrafficSteeringApplication(SDNController(topo, learning=False), topo)
        chain = tsa.add_policy_chain(PolicyChain("c", ("ids",)))
        updated = tsa.rewrite_chain("c", ("dpi", "ids"))
        assert updated.chain_id == chain.chain_id


class TestMultiSwitchSteering:
    def test_chain_across_switches(self):
        """Figure 5-style: middleboxes attached to different switches."""
        topo = Topology()
        for name in ("s1", "s2"):
            topo.add_switch(name)
        topo.add_host("user1")
        topo.add_host("user2")
        recorder = TagRecorder()
        topo.add_host("mb1", function=recorder)
        topo.add_link("user1", "s1")
        topo.add_link("s1", "s2")
        topo.add_link("s2", "mb1")
        topo.add_link("s2", "user2")
        controller = SDNController(topo, learning=False)
        tsa = TrafficSteeringApplication(controller, topo)
        tsa.register_middlebox_instance("mb_a", "mb1")
        chain = tsa.add_policy_chain(PolicyChain("c", ("mb_a",)))
        tsa.assign_traffic(TrafficAssignment("user1", "user2", "c"))
        tsa.realize()
        send(topo)
        assert recorder.seen_vids == [chain.chain_id]
        received = topo.hosts["user2"].received_packets
        assert len(received) == 1
        assert received[0].outer_vlan is None


def test_realize_is_idempotent():
    """A second realize() installs nothing: it used to add a duplicate of
    every ingress classifier (two FLOW002 errors on figure 5's s1)."""
    from repro.telemetry.scenario import build_figure5_system
    from repro.validation import validate_scenario

    system = build_figure5_system()

    def tables():
        return {
            name: [(e.priority, e.match, e.actions) for e in switch.table]
            for name, switch in system.topology.switches.items()
        }

    before = tables()
    system.tsa.realize()
    assert tables() == before
    assert validate_scenario(topology=system.topology, tsa=system.tsa) == []
