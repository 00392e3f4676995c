"""Integration: per-flow repinning — MCA^2 migration on the wire.

The stress monitor migrates a heavy flow's scan state between instances
(tested in test_mca2.py); here the *traffic steering* half is exercised:
the pinned flow's packets traverse the dedicated DPI host while every other
flow keeps its original path.
"""

import pytest

from repro.core.controller import DPIController
from repro.core.instance import DPIServiceFunction
from repro.middleboxes.base import MiddleboxChainFunction
from repro.middleboxes.ids import IntrusionDetectionSystem
from repro.net.controller import SDNController
from repro.net.flows import FiveTuple
from repro.net.packet import make_tcp_packet
from repro.net.steering import (
    PolicyChain,
    TrafficAssignment,
    TrafficSteeringApplication,
)
from repro.net.topology import Topology

SIGNATURE = b"GET /cgi-bin/exploit"


@pytest.fixture
def pinnable_system():
    topo = Topology()
    topo.add_switch("s1")
    for name in ("user1", "user2", "mb1", "dpi_main", "dpi_dedicated"):
        topo.add_host(name)
        topo.add_link("s1", name)
    sdn = SDNController(topo, learning=False)
    tsa = TrafficSteeringApplication(sdn, topo)

    ids = IntrusionDetectionSystem(middlebox_id=1)
    ids.add_signature(0, SIGNATURE)
    dpi_controller = DPIController()
    ids.register_with(dpi_controller)

    tsa.register_middlebox_instance("ids", "mb1")
    tsa.register_middlebox_instance("dpi", "dpi_main")
    tsa.add_policy_chain(PolicyChain("web", ("ids",)))
    dpi_controller.attach_tsa(tsa)
    tsa.assign_traffic(TrafficAssignment("user1", "user2", "web"))
    tsa.realize()

    main_instance = dpi_controller.instances.provision("dpi_main")
    dedicated_instance = dpi_controller.instances.provision("dpi_dedicated")
    topo.hosts["dpi_main"].set_function(DPIServiceFunction(main_instance))
    topo.hosts["dpi_dedicated"].set_function(
        DPIServiceFunction(dedicated_instance)
    )
    topo.hosts["mb1"].set_function(MiddleboxChainFunction(ids))
    return {
        "topo": topo,
        "tsa": tsa,
        "controller": dpi_controller,
        "ids": ids,
        "main": main_instance,
        "dedicated": dedicated_instance,
    }


def send(topo, payload, src_port):
    user1, user2 = topo.hosts["user1"], topo.hosts["user2"]
    packet = make_tcp_packet(
        user1.mac, user2.mac, user1.ip, user2.ip, src_port, 80, payload=payload
    )
    user1.send(packet)
    topo.run()
    return packet


def heavy_flow_tuple(topo, src_port):
    user1, user2 = topo.hosts["user1"], topo.hosts["user2"]
    return FiveTuple(
        src_ip=user1.ip,
        dst_ip=user2.ip,
        protocol=6,
        src_port=src_port,
        dst_port=80,
    )


class TestFlowPinning:
    def test_pinned_flow_uses_dedicated_instance(self, pinnable_system):
        topo = pinnable_system["topo"]
        tsa = pinnable_system["tsa"]
        send(topo, b"before pinning", src_port=6000)
        assert pinnable_system["main"].telemetry.packets_scanned == 1

        # Migrate the heavy flow: scan state + steering.
        flow = heavy_flow_tuple(topo, src_port=6000)
        pinnable_system["controller"].migrate_flow(
            flow, "dpi_main", "dpi_dedicated"
        )
        tsa.pin_flow("web", "user1", flow, {"dpi_main": "dpi_dedicated"})

        send(topo, b"after pinning", src_port=6000)
        assert pinnable_system["main"].telemetry.packets_scanned == 1
        assert pinnable_system["dedicated"].telemetry.packets_scanned == 1

    def test_other_flows_unaffected(self, pinnable_system):
        topo = pinnable_system["topo"]
        tsa = pinnable_system["tsa"]
        flow = heavy_flow_tuple(topo, src_port=6000)
        tsa.pin_flow("web", "user1", flow, {"dpi_main": "dpi_dedicated"})
        send(topo, b"other flow traffic", src_port=7000)
        assert pinnable_system["main"].telemetry.packets_scanned == 1
        assert pinnable_system["dedicated"].telemetry.packets_scanned == 0

    def test_detection_still_works_after_migration(self, pinnable_system):
        topo = pinnable_system["topo"]
        tsa = pinnable_system["tsa"]
        # The signature is split across the migration point.
        half = len(SIGNATURE) // 2
        send(topo, SIGNATURE[:half], src_port=6000)
        flow = heavy_flow_tuple(topo, src_port=6000)
        assert pinnable_system["controller"].migrate_flow(
            flow, "dpi_main", "dpi_dedicated"
        )
        tsa.pin_flow("web", "user1", flow, {"dpi_main": "dpi_dedicated"})
        send(topo, SIGNATURE[half:], src_port=6000)
        # Cross-packet, cross-instance detection: the carried DFA state
        # completes the match on the dedicated instance.
        assert len(pinnable_system["ids"].alerts) == 1

    def test_unpin_restores_original_path(self, pinnable_system):
        topo = pinnable_system["topo"]
        tsa = pinnable_system["tsa"]
        flow = heavy_flow_tuple(topo, src_port=6000)
        installed = tsa.pin_flow(
            "web", "user1", flow, {"dpi_main": "dpi_dedicated"}
        )
        send(topo, b"pinned", src_port=6000)
        assert pinnable_system["dedicated"].telemetry.packets_scanned == 1
        assert tsa.unpin_flow(installed) == 1
        send(topo, b"unpinned", src_port=6000)
        assert pinnable_system["main"].telemetry.packets_scanned == 1

    def test_resteer_keeps_flow_pins(self, pinnable_system):
        """Regression: re-steering a chain used to delete its flow pins, so
        the pinned flow went back to the instance its state had left."""
        topo = pinnable_system["topo"]
        tsa = pinnable_system["tsa"]
        flow = heavy_flow_tuple(topo, src_port=6000)
        pinnable_system["controller"].migrate_flow(
            flow, "dpi_main", "dpi_dedicated"
        )
        pin = tsa.pin_flow("web", "user1", flow, {"dpi_main": "dpi_dedicated"})
        entries = len(topo.switches["s1"].table)
        tsa.reinstall_chain("web", tsa.realized["web"].hop_hosts)
        assert len(topo.switches["s1"].table) == entries
        send(topo, b"after re-steer", src_port=6000)
        assert pinnable_system["main"].telemetry.packets_scanned == 0
        assert pinnable_system["dedicated"].telemetry.packets_scanned == 1
        assert tsa.unpin_flow(pin) == 1

    def test_pin_unknown_chain_rejected(self, pinnable_system):
        flow = heavy_flow_tuple(pinnable_system["topo"], src_port=1)
        with pytest.raises(KeyError):
            pinnable_system["tsa"].pin_flow(
                "ghost", "user1", flow, {"dpi_main": "dpi_dedicated"}
            )

    def test_pin_unknown_hop_rejected(self, pinnable_system):
        flow = heavy_flow_tuple(pinnable_system["topo"], src_port=1)
        with pytest.raises(KeyError):
            pinnable_system["tsa"].pin_flow(
                "web", "user1", flow, {"not-a-hop": "dpi_dedicated"}
            )

    def test_pin_unknown_assignment_rejected(self, pinnable_system):
        flow = heavy_flow_tuple(pinnable_system["topo"], src_port=1)
        with pytest.raises(KeyError):
            pinnable_system["tsa"].pin_flow(
                "web", "user2", flow, {"dpi_main": "dpi_dedicated"}
            )
