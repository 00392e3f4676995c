"""Integration: NSH in-band result passing end to end (Section 4.2,
option 1).

The DPI instance attaches match results as NSH metadata on the data packet;
middleboxes on the chain read it without buffering; the last DPI-aware
middlebox strips the layer so the destination receives the original packet.
"""

import pytest

from repro.core.controller import DPIController
from repro.core.instance import DPIServiceFunction
from repro.middleboxes.antivirus import AntiVirus
from repro.middleboxes.base import NSHChainFunction
from repro.middleboxes.ids import IntrusionDetectionSystem
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
VIRUS = b"VIRUS-BODY-MARKER"


@pytest.fixture
def nsh_system():
    topo = build_paper_topology()
    sdn = SDNController(topo, learning=False)
    tsa = TrafficSteeringApplication(sdn, topo)
    ids = IntrusionDetectionSystem(middlebox_id=1)
    ids.add_signature(0, SIGNATURE)
    antivirus = AntiVirus(middlebox_id=2)
    antivirus.add_signature(0, VIRUS)
    dpi_controller = DPIController()
    ids.register_with(dpi_controller)
    antivirus.register_with(dpi_controller)
    tsa.register_middlebox_instance("ids", "mb1")
    tsa.register_middlebox_instance("av", "mb2")
    tsa.register_middlebox_instance("dpi", "dpi1")
    tsa.add_policy_chain(PolicyChain("web", ("ids", "av")))
    dpi_controller.attach_tsa(tsa)
    tsa.assign_traffic(TrafficAssignment("user1", "user2", "web"))
    tsa.realize()
    instance = dpi_controller.instances.provision("dpi1")
    topo.hosts["dpi1"].set_function(
        DPIServiceFunction(instance, result_mode="nsh")
    )
    topo.hosts["mb1"].set_function(NSHChainFunction(ids))
    # The AV is the last DPI-aware middlebox: it strips the layer.
    topo.hosts["mb2"].set_function(NSHChainFunction(antivirus, strip=True))
    return {"topo": topo, "ids": ids, "av": antivirus, "instance": instance}


def send(topo, payload, src_port=46000):
    user1, user2 = topo.hosts["user1"], topo.hosts["user2"]
    packet = make_tcp_packet(
        user1.mac, user2.mac, user1.ip, user2.ip, src_port, 80, payload=payload
    )
    user1.send(packet)
    topo.run()
    return packet


class TestNSHOnTheWire:
    def test_single_packet_no_extra_traffic(self, nsh_system):
        send(nsh_system["topo"], SIGNATURE + b" HTTP/1.1")
        user2 = nsh_system["topo"].hosts["user2"]
        # Exactly one packet arrives — no dedicated result packet exists.
        assert len(user2.received_packets) == 1
        assert len(nsh_system["ids"].alerts) == 1

    def test_last_middlebox_strips_metadata(self, nsh_system):
        packet = send(nsh_system["topo"], SIGNATURE)
        received = nsh_system["topo"].hosts["user2"].received_packets[0]
        assert received.nsh is None
        assert not received.is_marked_matched
        assert received.payload == packet.payload

    def test_av_acts_on_inband_results(self, nsh_system):
        send(nsh_system["topo"], b"attachment " + VIRUS)
        assert nsh_system["av"].stats.packets_dropped == 1
        assert nsh_system["topo"].hosts["user2"].received_packets == []

    def test_clean_traffic_passes_without_metadata(self, nsh_system):
        send(nsh_system["topo"], b"totally clean")
        received = nsh_system["topo"].hosts["user2"].received_packets[0]
        assert received.nsh is None
        assert nsh_system["ids"].stats.packets_processed == 1

    def test_both_middleboxes_read_same_metadata(self, nsh_system):
        send(nsh_system["topo"], SIGNATURE + b" " + VIRUS)
        assert len(nsh_system["ids"].alerts) == 1
        assert nsh_system["av"].stats.packets_dropped == 1
        assert nsh_system["instance"].telemetry.packets_scanned == 1
