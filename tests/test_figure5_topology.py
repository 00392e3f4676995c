"""Integration: the paper's Figure 5 system illustration.

Four switches; middleboxes spread across them; two policy chains sharing
one DPI instance (DPI3 in the figure):

* chain 1: ``L2L4_FW -> DPI -> IDS1``
* chain 2: ``DPI -> IDS2 -> AV1 -> TS``

Both chains traverse the *same* DPI service instance, which scans each
packet once against the union of the chain's middlebox pattern sets.
"""

import pytest

from repro.core.controller import DPIController
from repro.core.instance import DPIServiceFunction
from repro.middleboxes.antivirus import AntiVirus
from repro.middleboxes.base import MiddleboxChainFunction
from repro.middleboxes.firewall import L2L4Firewall, L2L4FirewallFunction
from repro.middleboxes.ids import IntrusionDetectionSystem
from repro.middleboxes.traffic_shaper import TrafficShaper
from repro.net.controller import SDNController
from repro.net.packet import make_tcp_packet
from repro.net.steering import (
    PolicyChain,
    TrafficAssignment,
    TrafficSteeringApplication,
)
from repro.net.topology import Topology

# Every wire length read on these paths is checked against a fresh one.
pytestmark = pytest.mark.usefixtures("checked_length_memo")

IDS1_SIG = b"chain-one-threat"
IDS2_SIG = b"chain-two-threat"
AV_SIG = b"chain-two-virus!"
TS_SIG = b"BitTorrent protocol"


@pytest.fixture
def figure5_system():
    # Four switches in a line with cross links, middleboxes spread out.
    topo = Topology()
    for switch in ("s1", "s2", "s3", "s4"):
        topo.add_switch(switch)
    topo.add_link("s1", "s2")
    topo.add_link("s2", "s3")
    topo.add_link("s3", "s4")
    topo.add_link("s1", "s3")
    hosts = {
        "src1": "s1", "dst1": "s4",          # chain 1 endpoints
        "src2": "s1", "dst2": "s4",          # chain 2 endpoints
        "l2l4_fw": "s3", "ids1": "s3",       # chain 1 middleboxes
        "ids2": "s4", "av1": "s2", "ts": "s2",  # chain 2 middleboxes
        "dpi3": "s2",                         # the shared DPI instance
    }
    for host, switch in hosts.items():
        topo.add_host(host)
        topo.add_link(switch, host)

    sdn = SDNController(topo, learning=False)
    tsa = TrafficSteeringApplication(sdn, topo)

    ids1 = IntrusionDetectionSystem(middlebox_id=1, name="ids1")
    ids1.add_signature(0, IDS1_SIG)
    ids2 = IntrusionDetectionSystem(middlebox_id=2, name="ids2")
    ids2.add_signature(0, IDS2_SIG)
    av1 = AntiVirus(middlebox_id=3, name="av1")
    av1.add_signature(0, AV_SIG)
    shaper = TrafficShaper(middlebox_id=4, name="ts")
    shaper.add_class("bulk", rate_bps=1e6)
    shaper.add_app_pattern(0, TS_SIG, "bulk")
    firewall = L2L4Firewall()

    dpi_controller = DPIController()
    for middlebox in (ids1, ids2, av1, shaper):
        middlebox.register_with(dpi_controller)

    tsa.register_middlebox_instance("l2l4_fw", "l2l4_fw")
    tsa.register_middlebox_instance("ids1", "ids1")
    tsa.register_middlebox_instance("ids2", "ids2")
    tsa.register_middlebox_instance("av1", "av1")
    tsa.register_middlebox_instance("ts", "ts")
    tsa.register_middlebox_instance("dpi", "dpi3")

    # The paper's two policy chains (Figure 5's table).
    tsa.add_policy_chain(PolicyChain("chain1", ("l2l4_fw", "ids1")))
    tsa.add_policy_chain(PolicyChain("chain2", ("ids2", "av1", "ts")))
    dpi_controller.attach_tsa(tsa)
    assert tsa.chains["chain1"].middlebox_types == ("l2l4_fw", "dpi", "ids1")
    assert tsa.chains["chain2"].middlebox_types == ("dpi", "ids2", "av1", "ts")

    tsa.assign_traffic(TrafficAssignment("src1", "dst1", "chain1"))
    tsa.assign_traffic(TrafficAssignment("src2", "dst2", "chain2"))
    tsa.realize()

    instance = dpi_controller.instances.provision("dpi3")
    topo.hosts["dpi3"].set_function(DPIServiceFunction(instance))
    topo.hosts["l2l4_fw"].set_function(L2L4FirewallFunction(firewall))
    topo.hosts["ids1"].set_function(MiddleboxChainFunction(ids1))
    topo.hosts["ids2"].set_function(MiddleboxChainFunction(ids2))
    topo.hosts["av1"].set_function(MiddleboxChainFunction(av1))
    topo.hosts["ts"].set_function(MiddleboxChainFunction(shaper))
    return {
        "topo": topo,
        "instance": instance,
        "ids1": ids1,
        "ids2": ids2,
        "av1": av1,
        "shaper": shaper,
        "firewall": firewall,
    }


def send(topo, src, dst, payload, src_port=47000):
    src_host, dst_host = topo.hosts[src], topo.hosts[dst]
    packet = make_tcp_packet(
        src_host.mac, dst_host.mac, src_host.ip, dst_host.ip,
        src_port, 80, payload=payload,
    )
    src_host.send(packet)
    topo.run()
    return packet


class TestFigure5:
    def test_one_shared_instance_serves_both_chains(self, figure5_system):
        topo = figure5_system["topo"]
        send(topo, "src1", "dst1", IDS1_SIG, src_port=47001)
        send(topo, "src2", "dst2", IDS2_SIG, src_port=47002)
        assert figure5_system["instance"].telemetry.packets_scanned == 2
        assert len(figure5_system["ids1"].alerts) == 1
        assert len(figure5_system["ids2"].alerts) == 1

    def test_chain_isolation(self, figure5_system):
        """Chain 1 traffic carrying chain 2's signature: nothing fires."""
        topo = figure5_system["topo"]
        send(topo, "src1", "dst1", IDS2_SIG + b" " + AV_SIG, src_port=47003)
        assert figure5_system["ids2"].alerts == []
        assert figure5_system["av1"].stats.packets_processed == 0
        assert len(topo.hosts["dst1"].received_packets) >= 1

    def test_header_firewall_needs_no_dpi(self, figure5_system):
        """The L2-L4 firewall sits on chain 1 but never registered with
        the DPI service; it processes headers only."""
        topo = figure5_system["topo"]
        send(topo, "src1", "dst1", b"plain traffic", src_port=47004)
        assert figure5_system["firewall"].stats.packets_processed == 1

    def test_full_chain2_pipeline(self, figure5_system):
        topo = figure5_system["topo"]
        send(
            topo, "src2", "dst2",
            TS_SIG + b" " + AV_SIG, src_port=47005,
        )
        # The AV drops the infected packet before it reaches the shaper's
        # flow-classification... the shaper is after the AV on the chain.
        assert figure5_system["av1"].stats.packets_dropped == 1
        assert topo.hosts["dst2"].received_packets == []
        # A clean shaped flow classifies normally.
        send(topo, "src2", "dst2", TS_SIG + b" clean", src_port=47006)
        assert figure5_system["shaper"].flow_classes
