"""Unit tests for topology construction and the SDN controller."""

import hashlib
import json

import pytest

from repro.net.addresses import IPv4Address
from repro.net.controller import SDNController
from repro.net.packet import make_tcp_packet
from repro.net.topology import Topology, build_paper_topology
from repro.telemetry.scenario import build_figure5_system


class TestTopology:
    def test_build_paper_topology(self):
        topo = build_paper_topology()
        assert set(topo.switches) == {"s1"}
        assert set(topo.hosts) == {"user1", "user2", "mb1", "mb2", "dpi1"}
        assert len(topo.links) == 5

    def test_duplicate_names_rejected(self):
        topo = Topology()
        topo.add_switch("x")
        with pytest.raises(ValueError):
            topo.add_host("x")
        with pytest.raises(ValueError):
            topo.add_switch("x")

    def test_port_assignment(self):
        topo = Topology()
        topo.add_switch("s1")
        topo.add_host("h1")
        topo.add_host("h2")
        topo.add_link("s1", "h1")
        topo.add_link("s1", "h2")
        assert topo.port_toward("s1", "h1") == 1
        assert topo.port_toward("s1", "h2") == 2
        assert topo.port_toward("h1", "s1") == 1

    def test_port_toward_unknown(self):
        topo = build_paper_topology()
        with pytest.raises(KeyError):
            topo.port_toward("s1", "nonexistent")
        with pytest.raises(KeyError):
            topo.port_toward("user1", "user2")  # not directly linked

    def test_shortest_path_multi_switch(self):
        topo = Topology()
        for name in ("s1", "s2", "s3"):
            topo.add_switch(name)
        topo.add_host("h1")
        topo.add_host("h2")
        topo.add_link("h1", "s1")
        topo.add_link("s1", "s2")
        topo.add_link("s2", "s3")
        topo.add_link("s3", "h2")
        assert topo.shortest_path("h1", "h2") == ["h1", "s1", "s2", "s3", "h2"]

    def test_shortest_path_unknown_node_is_a_key_error(self):
        topo = build_paper_topology()
        with pytest.raises(KeyError, match="unknown node: ghost"):
            topo.shortest_path("user1", "ghost")
        with pytest.raises(KeyError, match="unknown node: ghost"):
            topo.shortest_path("ghost", "user1")

    def test_shortest_path_unreachable_is_a_value_error(self):
        topo = build_paper_topology()
        topo.add_switch("island")
        with pytest.raises(ValueError, match="no path from user1 to island"):
            topo.shortest_path("user1", "island")
        assert topo.shortest_path("island", "island") == ["island"]

    @pytest.mark.parametrize(
        "build, expected",
        [
            (
                build_paper_topology,
                "5454238b65f1f7bde09de4c33418c8d68fd0c06b63ce2d41b37b578b9ba5e66e",
            ),
            (
                lambda: build_figure5_system().topology,
                "0a624e39973cec75e540e6a405376ea2257acabd8871fa17fbb779aca77c9f5a",
            ),
        ],
        ids=["paper", "figure5"],
    )
    def test_shortest_paths_are_pinned(self, build, expected):
        """Every ordered pair's path, tie-breaks included: steering follows
        these, so a change of path search must not move one."""
        topo = build()
        names = list(topo.switches) + list(topo.hosts)
        paths = {
            f"{a}>{b}": topo.shortest_path(a, b)
            for a in names
            for b in names
            if a != b
        }
        material = json.dumps(paths, sort_keys=True).encode()
        assert hashlib.sha256(material).hexdigest() == expected

    def test_unique_host_addresses(self):
        topo = build_paper_topology()
        macs = {str(h.mac) for h in topo.hosts.values()}
        ips = {str(h.ip) for h in topo.hosts.values()}
        assert len(macs) == 5 and len(ips) == 5

    def test_host_of_ip(self):
        topo = build_paper_topology()
        user1 = topo.hosts["user1"]
        assert topo.host_of_ip(user1.ip) is user1
        assert topo.host_of_ip(IPv4Address("203.0.113.9")) is None

    def test_unknown_node_in_link(self):
        topo = Topology()
        topo.add_switch("s1")
        with pytest.raises(KeyError):
            topo.add_link("s1", "ghost")


class TestSDNControllerLearning:
    def _send(self, topo, src, dst, payload=b"ping"):
        src_host, dst_host = topo.hosts[src], topo.hosts[dst]
        packet = make_tcp_packet(
            src_host.mac, dst_host.mac, src_host.ip, dst_host.ip, 1000, 2000,
            payload=payload,
        )
        src_host.send(packet)
        topo.run()
        return packet

    def test_learning_floods_then_installs(self):
        topo = build_paper_topology()
        controller = SDNController(topo)
        self._send(topo, "user1", "user2")
        # First packet floods to everyone except the sender.
        assert len(topo.hosts["user2"].received_packets) == 1
        assert len(topo.hosts["mb1"].received_packets) == 1
        # user1's MAC is now learned; reply goes directly.
        self._send(topo, "user2", "user1")
        assert len(topo.hosts["user1"].received_packets) == 1
        assert len(topo.hosts["mb2"].received_packets) == 1  # only the flood

    def test_stats_counted(self):
        topo = build_paper_topology()
        controller = SDNController(topo)
        self._send(topo, "user1", "user2")
        assert controller.stats.packet_ins == 1
        assert controller.stats.packet_outs == 1

    def test_rule_installation_api(self):
        from repro.net.openflow import FlowAction, FlowMatch

        topo = build_paper_topology()
        controller = SDNController(topo, learning=False)
        entry = controller.install(
            "s1", FlowMatch(in_port=1), [FlowAction.drop()], priority=7
        )
        assert entry.priority == 7
        assert len(topo.switches["s1"].table) == 1

    def test_learning_disabled_drops_unknown(self):
        topo = build_paper_topology()
        SDNController(topo, learning=False)
        self._send(topo, "user1", "user2")
        assert topo.hosts["user2"].received_packets == []

    def test_application_consumes_packet_in(self):
        topo = build_paper_topology()
        controller = SDNController(topo)

        class Sink:
            def __init__(self):
                self.seen = []

            def handle_packet_in(self, switch, packet, in_port):
                self.seen.append(packet.packet_id)
                return True

        sink = Sink()
        controller.register_application(sink)
        packet = self._send(topo, "user1", "user2")
        assert sink.seen == [packet.packet_id]
        # Application consumed it; learning never forwarded.
        assert topo.hosts["user2"].received_packets == []
