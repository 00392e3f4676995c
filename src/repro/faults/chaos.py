"""The chaos harness: a fault plan against a live scenario, end to end.

``run_chaos_scenario`` wires the Figure 5 system with the full fault
stack — control channel, heartbeat monitor, failover coordinator, fault
injector — schedules a deterministic packet workload on the simulator
clock, arms the plan, and runs everything in one pass.  The returned
:class:`ChaosResult` carries the loss accounting the acceptance criteria
are written against:

* ``lost_after_recovery`` — packets sent after the last recovery action
  that never reached their destination (must be empty);
* ``failover_times`` vs the configured budget;
* ``digest`` — a SHA-256 over delivery order and the fault timeline; two
  runs with the same plan and seed must produce the same digest.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

from repro.faults.control import ControlChannel
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.recovery import (
    FailoverCoordinator,
    HeartbeatConfig,
    HeartbeatMonitor,
)
from repro.net.packet import make_tcp_packet
from repro.telemetry.scenario import AV_SIG, _build_payload, build_figure5_system

#: Host added next to s3 that failover can provision a fresh instance onto.
STANDBY_HOST = "dpi-standby"


@dataclass
class ChaosResult:
    """Everything a chaos run produced, for reporting and assertions."""

    scenario: str
    plan: FaultPlan
    hub: object
    topology: object
    dpi_controller: object
    tsa: object
    control: ControlChannel
    monitor: HeartbeatMonitor
    coordinator: FailoverCoordinator
    injector: FaultInjector
    packets_sent: int
    sent_ids: tuple
    send_times: dict = field(default_factory=dict)
    #: Packets the policy itself is expected to drop (e.g. AV signatures):
    #: they never count as loss, delivered or not.
    policy_drop_ids: tuple = ()
    received_ids: tuple = ()
    lost_ids: tuple = ()
    recovery_complete_at: float = 0.0
    lost_after_recovery: tuple = ()
    failover_times: dict = field(default_factory=dict)
    failover_budget: float = 0.0
    unrecovered_instances: tuple = ()
    digest: str = ""

    @property
    def budget_exceeded(self) -> "dict[str, float]":
        """Failovers slower than the budget (empty = all within bounds)."""
        return {
            name: duration
            for name, duration in sorted(self.failover_times.items())
            if duration > self.failover_budget
        }

    @property
    def ok(self) -> bool:
        """The acceptance predicate the CLI and CI smoke job gate on."""
        return (
            not self.lost_after_recovery
            and not self.unrecovered_instances
            and not self.budget_exceeded
        )

    def summary(self) -> dict:
        """A JSON-friendly report."""
        return {
            "scenario": self.scenario,
            "ok": self.ok,
            "packets_sent": self.packets_sent,
            "packets_received": len(self.received_ids),
            "policy_drops": len(self.policy_drop_ids),
            "packets_lost": len(self.lost_ids),
            "lost_after_recovery": len(self.lost_after_recovery),
            "recovery_complete_at": self.recovery_complete_at,
            "failover_times": {
                name: round(duration, 6)
                for name, duration in sorted(self.failover_times.items())
            },
            "failover_budget": self.failover_budget,
            "budget_exceeded": sorted(self.budget_exceeded),
            "unrecovered_instances": list(self.unrecovered_instances),
            "faults": [
                event.as_dict() for event in getattr(self.hub, "faults", ())
            ],
            "digest": self.digest,
        }


def _digest(result: ChaosResult) -> str:
    """A stable fingerprint of everything observable about the run.

    Packet ids are process-global, so the digest uses each packet's
    position in the workload instead — two same-seed runs in one process
    then fingerprint identically.
    """
    index_of = {pid: i for i, pid in enumerate(result.sent_ids)}
    material = {
        "received": [
            index_of[pid] for pid in result.received_ids if pid in index_of
        ],
        "lost": [index_of[pid] for pid in result.lost_ids if pid in index_of],
        "faults": [
            event.as_dict() for event in getattr(result.hub, "faults", ())
        ],
        "failover_times": {
            name: round(duration, 9)
            for name, duration in sorted(result.failover_times.items())
        },
    }
    payload = json.dumps(material, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def run_chaos_scenario(
    plan: FaultPlan,
    scenario: str = "figure5",
    *,
    packets: int = 60,
    packet_interval: float = 0.01,
    heartbeat: HeartbeatConfig | None = None,
    control_latency: float = 0.002,
    control_timeout: float = 0.02,
    allow_spare: bool = True,
    **engine,
) -> ChaosResult:
    """Run *plan* against the Figure 5 system under a packet workload.

    The workload is pre-built from ``plan.seed`` (payloads, chain
    alternation) and scheduled at fixed ``packet_interval`` steps on the
    simulator clock, interleaving with the plan's faults.  The run drains
    completely: first to the workload/fault horizon, then — heartbeats
    stopped — until every in-flight packet and control timer has settled.
    ``**engine`` are the :class:`~repro.core.instance.InstanceConfig` engine
    options of the DPI instance and of any failover replacement.
    """
    if scenario != "figure5":
        raise ValueError(f"unknown chaos scenario: {scenario!r}")
    heartbeat = heartbeat or HeartbeatConfig()

    system = build_figure5_system(extra_hosts={STANDBY_HOST: "s3"}, **engine)
    topo = system.topology
    hub = system.hub
    controller = system.dpi_controller

    control = ControlChannel(
        topo.simulator,
        latency=control_latency,
        timeout=control_timeout,
        seed=plan.seed,
        telemetry=hub,
    )
    coordinator = FailoverCoordinator(
        controller,
        system.tsa,
        topo,
        instance_hosts={"dpi3": "dpi3"},
        dpi_functions={"dpi3": system.dpi_function},
        middlebox_functions=system.middlebox_functions,
        spare_hosts=[STANDBY_HOST] if allow_spare else [],
        provision_kwargs=engine,
        telemetry=hub,
    )
    monitor = HeartbeatMonitor(
        topo.simulator,
        control,
        controller.instances,
        config=heartbeat,
        telemetry=hub,
        on_instance_down=coordinator.handle_instance_down,
        on_instance_up=coordinator.handle_instance_up,
    )
    injector = FaultInjector(
        topo.simulator,
        instances=controller.instances,
        topology=topo,
        control=control,
        dpi_functions=coordinator.dpi_functions,
        telemetry=hub,
    )
    monitor.start()
    injector.arm(plan)

    # Pre-build the workload so RNG consumption is independent of event
    # interleaving, then schedule the sends on the sim clock.
    rng = random.Random(plan.seed)
    sent_ids = []
    send_times: dict[int, float] = {}
    policy_drops = []

    def make_sender(src, packet):
        return lambda: src.send(packet)

    for index in range(packets):
        chain = "chain1" if index % 2 == 0 else "chain2"
        src = topo.hosts["src1" if chain == "chain1" else "src2"]
        dst = topo.hosts["dst1" if chain == "chain1" else "dst2"]
        payload = _build_payload(rng, chain)
        # One flow per packet: the AV quarantines whole flows on a hit, so
        # shared 5-tuples would turn later clean packets into (correct)
        # policy drops and muddy the loss accounting.
        packet = make_tcp_packet(
            src.mac, dst.mac, src.ip, dst.ip,
            40000 + index, 80, payload=payload,
        )
        at = (index + 1) * packet_interval
        sent_ids.append(packet.packet_id)
        send_times[packet.packet_id] = at
        if chain == "chain2" and AV_SIG in payload:
            # The antivirus drops these by verdict — expected, not loss.
            policy_drops.append(packet.packet_id)
        topo.simulator.schedule_at(
            at, make_sender(src, packet), label=f"chaos:send:{index}"
        )

    horizon = max(
        (packets + 1) * packet_interval,
        max((spec.at + spec.duration for spec in plan), default=0.0),
    )
    # Give detection and failover room past the last fault/send, then stop
    # the heartbeat so the event queue can drain.
    settle = 4 * (heartbeat.timeout + heartbeat.interval)
    topo.run(until=horizon + settle)
    monitor.stop()
    topo.run()

    received = []
    for dst_name in ("dst1", "dst2"):
        for packet in topo.hosts[dst_name].received_packets:
            if not packet.is_result_packet:
                received.append(packet.packet_id)
    received_set = sorted(set(received))
    deliverable = set(sent_ids) - set(policy_drops)
    lost = tuple(
        pid
        for pid in sent_ids
        if pid in deliverable and pid not in set(received)
    )

    # A run is "recovered" after the last healing action: any recover-phase
    # event (failover, degrade, reattach, window close) and any injected
    # fault that itself ends an outage (a link coming back, an instance
    # restarting — the heartbeat's reattach events also land shortly after,
    # but the inject time is the earliest honest bound).
    healing_kinds = ("link_up", "instance_restart")
    recover_times = [
        event.time
        for event in getattr(hub, "faults", ())
        if event.phase == "recover" or event.kind in healing_kinds
    ]
    recovery_complete_at = max(recover_times, default=0.0)
    lost_after_recovery = tuple(
        pid for pid in lost if send_times[pid] > recovery_complete_at
    )
    unrecovered = []
    for name, is_down in sorted(monitor.down.items()):
        if not is_down:
            continue
        record = coordinator.records.get(name)
        if record is None or record.recovered_at is None:
            unrecovered.append(name)

    result = ChaosResult(
        scenario=scenario,
        plan=plan,
        hub=hub,
        topology=topo,
        dpi_controller=controller,
        tsa=system.tsa,
        control=control,
        monitor=monitor,
        coordinator=coordinator,
        injector=injector,
        packets_sent=packets,
        sent_ids=tuple(sent_ids),
        send_times=send_times,
        policy_drop_ids=tuple(policy_drops),
        received_ids=tuple(received_set),
        lost_ids=lost,
        recovery_complete_at=recovery_complete_at,
        lost_after_recovery=lost_after_recovery,
        failover_times=coordinator.failover_times(),
        failover_budget=heartbeat.failover_budget,
        unrecovered_instances=tuple(unrecovered),
    )
    result.digest = _digest(result)
    return result
