"""Sim-clocked streaming load driver with a deterministic queueing model.

Feeds :class:`~repro.load.generator.LoadGenerator` batches into a
standalone :class:`~repro.core.controller.DPIController` one epoch at a
time on the discrete-event simulator's clock.  Every payload really goes
through ``instance.inspect`` (matches and scan counters are genuine), but
latency/SLO accounting comes from a *modeled* per-instance service rate
(``LoadSpec.rate_mbps``) driving a fluid queue:

    latency(packet k on instance i) = (backlog_i + cumulative bytes
    through k this epoch) / rate

so p99, queue depths and SLO violations are bit-reproducible across runs —
wall-clock scan timings never feed a scaling decision or a digest.

Flow placement is deterministic too: ``flow_id`` modulo over the sorted
alive shared-instance names, with autoscaler pins (heavy-hitter isolation)
taking precedence.  Isolation is applied at *placement time*: the per-flow
byte totals of an epoch are known before any packet is placed, so the
autoscaler's :meth:`~repro.autoscale.controller.Autoscaler.isolate_now`
pins heavy hitters (and anomaly-flagged flows from the previous epoch's
verdicts) before the epoch runs — a freshly provisioned dedicated
instance serves its flow immediately instead of idling until the next
epoch.  A :class:`~repro.faults.plan.FaultPlan` can crash and restart
instances mid-ramp; dead instances' backlogs are requeued onto the first
surviving instance and the autoscaler's healing floor provisions
replacements.

With ``anomaly=True`` an :class:`~repro.anomaly.middlebox.
AnomalyDetectorMiddlebox` registers as a read-only chain consumer and is
fed every inspection result (size + match metadata, never payload
re-reads); its end-of-epoch verdicts flow into the next epoch's isolation
signals.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.autoscale import (
    LOAD_OFFERED_BYTES,
    LOAD_PACKETS,
    LOAD_QUEUE_DEPTH,
    LOAD_QUEUE_LATENCY,
    LOAD_SERVED_BYTES,
    LOAD_SLO_VIOLATIONS,
    LOAD_SUPPRESSED,
    QUEUE_LATENCY_BUCKETS,
    Autoscaler,
    build_policies,
)
from repro.load.generator import SIGNATURES, LoadBatch, LoadGenerator
from repro.load.profiles import (
    CHAIN_FLOOD,
    CHAIN_LONG,
    CHAIN_WEB,
    RAMP_KINDS,
    SCENARIOS,
    LoadSpec,
    profile_vocabulary,
)

LOAD_REQUEUED_BYTES = "load_requeued_bytes_total"

#: Middlebox registrations for the load scenario: an IDS and an AV engine.
MIDDLEBOXES = ((1, "ids"), (2, "av"))

#: Middlebox id the optional anomaly detector registers under.
ANOMALY_MIDDLEBOX_ID = 3

#: Policy chains the three traffic profiles ride (paper Figure 2 idiom:
#: different traffic classes traverse different middlebox chains).
CHAIN_TYPES = {
    CHAIN_WEB: ("web", ("ids",)),
    CHAIN_FLOOD: ("flood", ("ids", "av")),
    CHAIN_LONG: ("long", ("av",)),
}


def build_load_controller(telemetry: Any = None) -> Any:
    """A standalone controller with the load scenario's middleboxes/chains."""
    from repro.core.controller import DPIController
    from repro.core.messages import AddPatternsMessage, RegisterMiddleboxMessage
    from repro.core.patterns import Pattern
    from repro.net.steering import PolicyChain

    controller = DPIController(telemetry=telemetry)
    for middlebox_id, name in MIDDLEBOXES:
        controller.handle_message(RegisterMiddleboxMessage(middlebox_id, name))
        patterns = [
            Pattern(index, data)
            for index, data in enumerate(SIGNATURES[name])
        ]
        controller.handle_message(AddPatternsMessage(middlebox_id, patterns))
    chains = {}
    for chain_id in sorted(CHAIN_TYPES):
        name, types = CHAIN_TYPES[chain_id]
        chains[name] = PolicyChain(name, types, chain_id=chain_id)
    controller.policy_chains_changed(chains)
    return controller


@dataclass
class EpochReport:
    """One epoch's accounting row (rendered by the CLI table)."""

    epoch: int
    time: float
    concurrent_flows: int
    offered_packets: int
    offered_bytes: int
    served_bytes: float
    backlog_bytes: float
    p99_latency_seconds: float
    slo_violations: int
    matches: int
    suppressed: int
    alive_instances: int
    actions: list[str] = field(default_factory=list)
    anomalous_flows: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "epoch": self.epoch,
            "time": self.time,
            "concurrent_flows": self.concurrent_flows,
            "offered_packets": self.offered_packets,
            "offered_bytes": self.offered_bytes,
            "served_bytes": round(self.served_bytes, 3),
            "backlog_bytes": round(self.backlog_bytes, 3),
            "p99_ms": round(self.p99_latency_seconds * 1e3, 3),
            "slo_violations": self.slo_violations,
            "matches": self.matches,
            "suppressed": self.suppressed,
            "alive_instances": self.alive_instances,
            "actions": list(self.actions),
            "anomalous_flows": self.anomalous_flows,
        }


@dataclass
class LoadRunResult:
    """Everything a load run produced, plus its determinism digest."""

    spec: LoadSpec
    autoscaled: bool
    hub: Any
    controller: Any
    autoscaler: "Autoscaler | None"
    epochs: list[EpochReport]
    digest: str
    total_packets: int
    total_bytes: int
    total_matches: int
    total_slo_violations: int
    total_suppressed: int
    served_bytes: float
    anomaly: Any = None  # the AnomalyDetectorMiddlebox, when enabled

    @property
    def peak_flows_within_slo(self) -> int:
        """Largest concurrent-flow count in an epoch that met the SLO."""
        within = [
            report.concurrent_flows
            for report in self.epochs
            if report.p99_latency_seconds <= self.spec.slo_seconds
            and report.offered_packets > 0
        ]
        return max(within) if within else 0

    @property
    def throughput_mbps(self) -> float:
        duration = self.spec.epochs * self.spec.epoch_seconds
        return self.served_bytes * 8.0 / 1e6 / duration if duration else 0.0

    @property
    def overall_p99_ms(self) -> float:
        worst = [report.p99_latency_seconds for report in self.epochs]
        return max(worst) * 1e3 if worst else 0.0

    def summary(self) -> dict[str, Any]:
        actions = []
        if self.autoscaler is not None:
            actions = [
                {
                    "time": event.time,
                    "epoch": event.epoch,
                    "action": event.action,
                    "instance": event.instance,
                    "reason": event.reason,
                }
                for event in self.autoscaler.events
            ]
        anomaly = None
        if self.anomaly is not None:
            verdicts = self.anomaly.verdicts()
            from repro.anomaly import verdict_digest

            anomaly = {
                "tracked_flows": len(self.anomaly.extractor),
                "flagged_flows": sum(1 for v in verdicts if v.anomalous),
                "verdict_digest": verdict_digest(verdicts),
            }
        return {
            "spec": self.spec.to_dict(),
            "autoscale": self.autoscaled,
            "digest": self.digest,
            "anomaly": anomaly,
            "epochs": [report.to_dict() for report in self.epochs],
            "totals": {
                "packets": self.total_packets,
                "bytes": self.total_bytes,
                "matches": self.total_matches,
                "slo_violations": self.total_slo_violations,
                "suppressed": self.total_suppressed,
                "served_bytes": round(self.served_bytes, 3),
            },
            "peak_flows_within_slo": self.peak_flows_within_slo,
            "throughput_mbps": round(self.throughput_mbps, 3),
            "overall_p99_ms": round(self.overall_p99_ms, 3),
            "actions": actions,
        }


class LoadDriver:
    """Owns one run: simulator, controller, generator, optional autoscaler."""

    def __init__(
        self,
        spec: LoadSpec,
        *,
        autoscale: bool = False,
        policy: str = "isolation",
        policies: Any = None,
        max_instances: int = 8,
        plan: Any = None,
        instance_kwargs: "dict[str, Any] | None" = None,
        anomaly: bool = False,
        anomaly_classifier: Any = None,
    ) -> None:
        from repro.net.simulator import Simulator
        from repro.telemetry import TelemetryHub

        self.spec = spec
        self.simulator = Simulator()
        self.hub = TelemetryHub.for_simulator(self.simulator, tracing=False)
        self.controller = build_load_controller(telemetry=self.hub)
        self.anomaly = None
        if anomaly or anomaly_classifier is not None:
            from repro.anomaly import AnomalyDetectorMiddlebox

            self.anomaly = AnomalyDetectorMiddlebox(
                ANOMALY_MIDDLEBOX_ID,
                "anomaly",
                classifier=anomaly_classifier,
                registry=self.hub.registry,
            )
            self.anomaly.register_with(self.controller)
        self.instance_kwargs = dict(instance_kwargs or {"kernel": "flat"})
        for index in range(spec.initial_instances):
            self.controller.instances.provision(
                f"dpi-{index + 1}", **self.instance_kwargs
            )
        self.autoscaler: "Autoscaler | None" = None
        if autoscale:
            self.autoscaler = Autoscaler(
                self.controller,
                rate_bytes_per_second=spec.rate_bytes_per_second,
                epoch_seconds=spec.epoch_seconds,
                slo_seconds=spec.slo_seconds,
                policies=(
                    policies if policies is not None else build_policies(policy)
                ),
                min_instances=spec.initial_instances,
                max_instances=max_instances,
                provision_kwargs=self.instance_kwargs,
            )
        self.generator = LoadGenerator(spec)
        self.plan = plan
        self.epochs: list[EpochReport] = []
        self._backlog: dict[str, float] = {}
        registry = self.hub.registry
        self._requeued = registry.counter(LOAD_REQUEUED_BYTES)
        self._suppressed = registry.counter(LOAD_SUPPRESSED)
        self.total_matches = 0
        self.served_bytes = 0.0
        #: Flagged (flow_key, chain_id) pairs from the previous epoch's
        #: verdicts, consumed by the next epoch's placement-time isolation.
        self._pending_anomalous: tuple = ()

    # -- faults -----------------------------------------------------------

    def _arm_plan(self) -> None:
        """Schedule instance crash/restart specs from the fault plan."""
        from repro.faults.plan import FaultKind

        if self.plan is None:
            return
        supported = (FaultKind.INSTANCE_CRASH, FaultKind.INSTANCE_RESTART)
        for fault in self.plan:
            if fault.kind not in supported:
                continue
            self.simulator.schedule_at(
                fault.at,
                self._fault_firer(fault),
                label=f"fault:{fault.kind.value}:{fault.target}",
            )

    def _fault_firer(self, fault: Any) -> "Callable[[], None]":
        def fire() -> None:
            from repro.faults.plan import FaultKind

            instance = self.controller.instances.get(fault.target)
            if instance is None:
                return
            if fault.kind is FaultKind.INSTANCE_CRASH and instance.alive:
                instance.crash()
                self.hub.record_fault(
                    fault.kind.value, fault.target, phase="inject"
                )
            elif fault.kind is FaultKind.INSTANCE_RESTART and not instance.alive:
                instance.restart()
                self.hub.record_fault(
                    fault.kind.value, fault.target, phase="recover"
                )

        return fire

    # -- placement --------------------------------------------------------

    def _shared_alive(self) -> list[str]:
        manager = self.controller.instances
        names = []
        for name, instance in manager.items():
            if instance.alive and not manager.is_dedicated(name):
                names.append(name)
        return sorted(names)

    def _place(self, flow_id: int, shared: list[str]) -> str:
        if self.autoscaler is not None:
            pinned = self.autoscaler.pins.get(flow_id)
            if pinned is not None:
                instance = self.controller.instances.get(pinned)
                if instance is not None and instance.alive:
                    return pinned
        return shared[flow_id % len(shared)]

    def _requeue_dead_backlogs(self, shared: list[str]) -> None:
        """Move dead/retired instances' backlog onto the first survivor."""
        if not shared:
            return
        orphaned = 0.0
        manager = self.controller.instances
        for name in sorted(self._backlog):
            if name in shared:
                continue
            instance = manager.get(name)
            if instance is None or not instance.alive:
                orphaned += self._backlog.pop(name)
        if orphaned > 0:
            self._backlog[shared[0]] = self._backlog.get(shared[0], 0.0) + orphaned
            self._requeued.inc(orphaned)

    # -- the epoch loop ---------------------------------------------------

    def _run_epoch(self, batch: LoadBatch) -> None:
        spec = self.spec
        registry = self.hub.registry
        rate = spec.rate_bytes_per_second
        window = spec.epoch_seconds
        slo = spec.slo_seconds
        shared = self._shared_alive()
        report = EpochReport(
            epoch=batch.epoch,
            time=self.simulator.now,
            concurrent_flows=batch.concurrent_flows,
            offered_packets=len(batch.items),
            offered_bytes=0,
            served_bytes=0.0,
            backlog_bytes=0.0,
            p99_latency_seconds=0.0,
            slo_violations=0,
            matches=0,
            suppressed=batch.suppressed,
            alive_instances=len(shared),
        )
        if batch.suppressed:
            self._suppressed.inc(batch.suppressed)
        if not shared:
            # Total outage: nothing to scan with; count everything dropped.
            self._requeued.inc(sum(len(p) for _, _, p, _ in batch.items))
            self.epochs.append(report)
            self._after_epoch(batch, report, flow_bytes={}, flow_chain={})
            return

        self._requeue_dead_backlogs(shared)

        # Per-flow byte totals are fully known before any packet is
        # placed, so isolation (heavy hitters, anomaly verdicts carried
        # over from last epoch) acts NOW: a dedicated instance provisioned
        # here serves its pinned flow in this same epoch.
        flow_bytes: dict[int, int] = {}
        flow_chain: dict[int, int] = {}
        for flow_id, chain_id, payload, _ in batch.items:
            flow_bytes[flow_id] = flow_bytes.get(flow_id, 0) + len(payload)
            if flow_id not in flow_chain:
                flow_chain[flow_id] = chain_id
        pre_events: list[Any] = []
        if self.autoscaler is not None:
            heavy_flow, heavy_share, heavy_chain = self._heavy_of(
                flow_bytes, flow_chain
            )
            pre_events = self.autoscaler.isolate_now(
                epoch=batch.epoch,
                heavy_flow=heavy_flow,
                heavy_share=heavy_share,
                heavy_chain=heavy_chain,
                anomalous_flows=self._unpinned_anomalous(),
            )

        # Deterministic placement, preserving arrival order per instance.
        arrivals: dict[str, list[tuple[int, int, bytes, bool]]] = {}
        for item in batch.items:
            name = self._place(item[0], shared)
            arrivals.setdefault(name, []).append(item)

        latencies: list[float] = []
        for name in sorted(arrivals):
            instance = self.controller.instances[name]
            offered = registry.counter(LOAD_OFFERED_BYTES, instance=name)
            packets = registry.counter(LOAD_PACKETS, instance=name)
            served_counter = registry.counter(LOAD_SERVED_BYTES, instance=name)
            violations = registry.counter(LOAD_SLO_VIOLATIONS, instance=name)
            latency_histogram = registry.histogram(
                LOAD_QUEUE_LATENCY,
                buckets=QUEUE_LATENCY_BUCKETS,
                instance=name,
            )
            cumulative = self._backlog.get(name, 0.0)
            instance_bytes = 0
            for flow_id, chain_id, payload, _ in arrivals[name]:
                output = instance.inspect(
                    payload, chain_id=chain_id, flow_key=flow_id, now=self.simulator.now
                )
                packet_matches = sum(
                    len(hits) for hits in output.matches.values()
                )
                report.matches += packet_matches
                size = len(payload)
                if self.anomaly is not None:
                    self.anomaly.observe(
                        flow_id,
                        chain_id=chain_id,
                        size=size,
                        matches=packet_matches,
                        now=self.simulator.now,
                    )
                instance_bytes += size
                cumulative += size
                latency = cumulative / rate
                latencies.append(latency)
                latency_histogram.observe(latency)
                if latency > slo:
                    report.slo_violations += 1
                    violations.inc()
            served = min(cumulative, rate * window)
            self._backlog[name] = cumulative - served
            offered.inc(instance_bytes)
            packets.inc(len(arrivals[name]))
            served_counter.inc(served)
            registry.gauge(LOAD_QUEUE_DEPTH, instance=name).set(
                self._backlog[name]
            )
            report.offered_bytes += instance_bytes
            report.served_bytes += served
            self.served_bytes += served

        report.backlog_bytes = sum(
            self._backlog.get(name, 0.0) for name in shared
        )
        if latencies:
            ordered = sorted(latencies)
            rank = max(0, int(len(ordered) * 0.99 + 0.5) - 1)
            report.p99_latency_seconds = ordered[rank]
        self.total_matches += report.matches
        self.epochs.append(report)
        self._after_epoch(
            batch, report, flow_bytes, flow_chain, pre_events=pre_events
        )

    def _heavy_of(
        self,
        flow_bytes: dict[int, int],
        flow_chain: dict[int, int],
    ) -> "tuple[int | None, float, int | None]":
        """Deterministic top flow: most bytes, lowest id wins ties."""
        total = sum(flow_bytes.values())
        if total <= 0:
            return None, 0.0, None
        heavy_flow = min(flow_bytes, key=lambda fid: (-flow_bytes[fid], fid))
        return (
            heavy_flow,
            flow_bytes[heavy_flow] / total,
            flow_chain.get(heavy_flow),
        )

    def _unpinned_anomalous(self) -> tuple:
        """Carried-over flagged flows the autoscaler has not pinned yet."""
        if self.autoscaler is None:
            return ()
        pins = self.autoscaler.pins
        return tuple(
            pair for pair in self._pending_anomalous if pair[0] not in pins
        )

    def _after_epoch(
        self,
        batch: LoadBatch,
        report: EpochReport,
        flow_bytes: dict[int, int],
        flow_chain: dict[int, int],
        pre_events: "list[Any] | None" = None,
    ) -> None:
        if self.anomaly is not None:
            verdicts = self.anomaly.verdicts()
            flagged = sorted(
                (
                    (verdict.flow_key, verdict.chain_id)
                    for verdict in verdicts
                    if verdict.anomalous
                ),
                key=repr,
            )
            report.anomalous_flows = len(flagged)
            self._pending_anomalous = tuple(flagged)
        if self.autoscaler is None:
            return
        heavy_flow, heavy_share, heavy_chain = self._heavy_of(
            flow_bytes, flow_chain
        )
        events = self.autoscaler.tick(
            epoch=batch.epoch,
            heavy_flow=heavy_flow,
            heavy_share=heavy_share,
            heavy_chain=heavy_chain,
            anomalous_flows=self._unpinned_anomalous(),
        )
        report.actions = [
            f"{event.action}:{event.instance}"
            for event in list(pre_events or []) + events
        ]
        report.alive_instances = len(self._shared_alive())

    def run(self) -> LoadRunResult:
        """Drive every epoch on the simulator clock; return the result."""
        from repro.telemetry.digest import deterministic_digest

        self._arm_plan()
        batches = self.generator.batches()
        window = self.spec.epoch_seconds

        def step() -> None:
            try:
                batch = next(batches)
            except StopIteration:
                return
            self._run_epoch(batch)
            if batch.epoch + 1 < self.spec.epochs:
                self.simulator.schedule(window, step, label="load-epoch")

        # Epoch e is accounted at its end, (e + 1) * epoch_seconds.
        self.simulator.schedule_at(window, step, label="load-epoch")
        self.simulator.run()

        totals_packets = sum(report.offered_packets for report in self.epochs)
        totals_bytes = sum(report.offered_bytes for report in self.epochs)
        return LoadRunResult(
            spec=self.spec,
            autoscaled=self.autoscaler is not None,
            hub=self.hub,
            controller=self.controller,
            autoscaler=self.autoscaler,
            epochs=self.epochs,
            digest=deterministic_digest(self.hub),
            total_packets=totals_packets,
            total_bytes=totals_bytes,
            total_matches=self.total_matches,
            total_slo_violations=sum(
                report.slo_violations for report in self.epochs
            ),
            total_suppressed=sum(report.suppressed for report in self.epochs),
            served_bytes=self.served_bytes,
            anomaly=self.anomaly,
        )


def run_load_scenario(
    spec: LoadSpec,
    *,
    autoscale: bool = False,
    policy: str = "isolation",
    policies: Any = None,
    max_instances: int = 8,
    plan: Any = None,
    instance_kwargs: "dict[str, Any] | None" = None,
    anomaly: bool = False,
    anomaly_classifier: Any = None,
    validate: bool = True,
) -> LoadRunResult:
    """Validate the spec (LOAD0xx codes), build a driver, run it."""
    if validate:
        from repro.validation import raise_on_errors, validate_load_spec

        issues = validate_load_spec(
            spec.to_dict(),
            profile_names=profile_vocabulary(),
            ramp_kinds=RAMP_KINDS,
        )
        raise_on_errors(issues)
    driver = LoadDriver(
        spec,
        autoscale=autoscale,
        policy=policy,
        policies=policies,
        max_instances=max_instances,
        plan=plan,
        instance_kwargs=instance_kwargs,
        anomaly=anomaly,
        anomaly_classifier=anomaly_classifier,
    )
    return driver.run()
