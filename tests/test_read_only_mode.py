"""Integration tests for the read-only optimization (Section 4.2, option 3).

Read-only middleboxes (IDS-like monitors) come off the data path entirely:
the DPI service sends match results straight to their hosts, and matchless
packets generate no monitoring traffic at all — the Big Tap-style setup the
paper describes.
"""

import pytest

from repro.core.controller import DPIController
from repro.core.instance import DPIServiceFunction
from repro.core.reports import MatchReport
from repro.middleboxes.base import MonitoringFunction
from repro.middleboxes.ids import IntrusionDetectionSystem
from repro.middleboxes.ips import IntrusionPreventionSystem
from repro.net.controller import SDNController
from repro.net.packet import make_tcp_packet
from repro.net.steering import (
    PolicyChain,
    TrafficAssignment,
    TrafficSteeringApplication,
)
from repro.net.topology import build_paper_topology

# Every wire length read on these paths is checked against a fresh one.
pytestmark = pytest.mark.usefixtures("checked_length_memo")

SIGNATURE = b"GET /cgi-bin/exploit"


@pytest.fixture
def monitoring_system():
    topo = build_paper_topology()
    sdn = SDNController(topo, learning=False)
    tsa = TrafficSteeringApplication(sdn, topo)

    ids = IntrusionDetectionSystem(middlebox_id=1)
    ids.add_signature(0, SIGNATURE, severity="high")

    dpi_controller = DPIController()
    ids.register_with(dpi_controller)
    tsa.register_middlebox_instance("ids", "mb1")
    tsa.register_middlebox_instance("dpi", "dpi1")
    tsa.add_policy_chain(PolicyChain("monitor", ("ids",)))
    dpi_controller.attach_tsa(tsa)
    assert tsa.chains["monitor"].middlebox_types == ("dpi", "ids")

    optimized = dpi_controller.optimize_read_only_chains()
    assert optimized == ["monitor"]
    # Routing chain holds only the DPI service now.
    assert tsa.chains["monitor"].middlebox_types == ("dpi",)
    chain_id = tsa.chains["monitor"].chain_id
    # The scanning configuration still includes the IDS.
    assert dpi_controller.chain_middlebox_ids(chain_id) == (1,)

    tsa.assign_traffic(TrafficAssignment("user1", "user2", "monitor"))
    tsa.realize()

    instance = dpi_controller.instances.provision("dpi1")
    mb1 = topo.hosts["mb1"]
    topo.hosts["dpi1"].set_function(
        DPIServiceFunction(
            instance,
            direct_chains=dpi_controller.read_only_chain_ids(),
            middlebox_addresses={1: (mb1.mac, mb1.ip)},
        )
    )
    monitoring = MonitoringFunction(ids)
    mb1.set_function(monitoring)
    return {
        "topo": topo,
        "ids": ids,
        "instance": instance,
        "monitoring": monitoring,
        "chain_id": chain_id,
    }


def send(topo, payload, src_port=40000):
    user1, user2 = topo.hosts["user1"], topo.hosts["user2"]
    packet = make_tcp_packet(
        user1.mac, user2.mac, user1.ip, user2.ip, src_port, 80, payload=payload
    )
    user1.send(packet)
    topo.run()
    return packet


class TestReadOnlyDataPath:
    def test_matchless_packet_generates_no_monitor_traffic(self, monitoring_system):
        send(monitoring_system["topo"], b"perfectly clean payload")
        assert monitoring_system["monitoring"].results_consumed == 0
        user2 = monitoring_system["topo"].hosts["user2"]
        assert len(user2.received_packets) == 1

    def test_matched_packet_sends_result_to_monitor_only(self, monitoring_system):
        packet = send(monitoring_system["topo"], SIGNATURE + b" HTTP/1.1")
        # The IDS consumed a result packet and alerted on the data packet id.
        ids = monitoring_system["ids"]
        assert monitoring_system["monitoring"].results_consumed == 1
        assert len(ids.alerts) == 1
        assert ids.alerts[0].packet_id == packet.packet_id
        # The destination got the data packet but no result packet.
        user2 = monitoring_system["topo"].hosts["user2"]
        assert len(user2.received_packets) == 1
        assert not user2.received_packets[0].is_result_packet
        assert user2.received_packets[0].payload == packet.payload

    def test_data_packet_never_visits_monitor(self, monitoring_system):
        send(monitoring_system["topo"], SIGNATURE)
        mb1 = monitoring_system["topo"].hosts["mb1"]
        # Only the result packet reached mb1; no data packets.
        assert mb1.stats.packets_received == 1
        assert monitoring_system["monitoring"].results_consumed == 1

    def test_direct_result_counter(self, monitoring_system):
        send(monitoring_system["topo"], SIGNATURE, src_port=41000)
        send(monitoring_system["topo"], b"clean", src_port=41001)
        send(monitoring_system["topo"], SIGNATURE, src_port=41002)
        function = monitoring_system["topo"].hosts["dpi1"].function
        assert function.direct_results_sent == 2


class TestGuards:
    def test_monitoring_function_rejects_inline_middlebox(self):
        ips = IntrusionPreventionSystem(middlebox_id=9)
        with pytest.raises(TypeError):
            MonitoringFunction(ips)

    def test_consume_results_only_rejects_inline_middlebox(self):
        ips = IntrusionPreventionSystem(middlebox_id=9)
        ips.add_block_signature(0, b"evil-sig")
        fake_result = make_tcp_packet(
            __import__("repro.net.addresses", fromlist=["MACAddress"]).MACAddress.from_index(0),
            __import__("repro.net.addresses", fromlist=["MACAddress"]).MACAddress.from_index(1),
            __import__("repro.net.addresses", fromlist=["IPv4Address"]).IPv4Address("10.0.0.1"),
            __import__("repro.net.addresses", fromlist=["IPv4Address"]).IPv4Address("10.0.0.2"),
            1, 2,
            payload=MatchReport.from_matches({9: [(0, 8)]}).encode(),
        )
        fake_result.describes_packet_id = 77
        with pytest.raises(TypeError):
            ips.consume_results_only(fake_result)

    def test_mixed_chain_not_optimized(self):
        """A chain with an inline middlebox keeps its routing."""
        topo = build_paper_topology()
        sdn = SDNController(topo, learning=False)
        tsa = TrafficSteeringApplication(sdn, topo)
        ids = IntrusionDetectionSystem(middlebox_id=1)
        ids.add_signature(0, SIGNATURE)
        ips = IntrusionPreventionSystem(middlebox_id=2)
        ips.add_block_signature(0, b"blocked-sig")
        dpi_controller = DPIController()
        ids.register_with(dpi_controller)
        ips.register_with(dpi_controller)
        tsa.register_middlebox_instance("ids", "mb1")
        tsa.register_middlebox_instance("ips", "mb2")
        tsa.register_middlebox_instance("dpi", "dpi1")
        tsa.add_policy_chain(PolicyChain("mixed", ("ids", "ips")))
        dpi_controller.attach_tsa(tsa)
        assert dpi_controller.optimize_read_only_chains() == []
        assert tsa.chains["mixed"].middlebox_types == ("dpi", "ids", "ips")

    def test_direct_chain_requires_addresses(self):
        from repro.core.instance import DPIServiceInstance, InstanceConfig
        from repro.core.patterns import Pattern
        from repro.core.scanner import MiddleboxProfile

        instance = DPIServiceInstance(
            InstanceConfig(
                pattern_sets={1: [Pattern(0, b"sig-data")]},
                profiles={1: MiddleboxProfile(1, read_only=True)},
                chain_map={100: (1,)},
            )
        )
        with pytest.raises(KeyError):
            DPIServiceFunction(instance, direct_chains={100})
