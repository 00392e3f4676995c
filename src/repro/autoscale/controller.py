"""The elastic autoscaler: telemetry registry in, lifecycle verbs out.

The :class:`Autoscaler` closes the control loop the SDN literature frames:
each tick it derives :class:`~repro.autoscale.policies.LoadSignals` from
the live :class:`~repro.telemetry.MetricsRegistry` (offered-byte counter
deltas, queue-depth gauges, a *windowed* p99 from latency-histogram bucket
deltas, fault-event activity), consults its policy stack, and acts through
the :class:`~repro.core.lifecycle.InstanceManager` facade — provision on
sustained SLO breach, decommission when idle, provision a *dedicated*
instance and pin a heavy-hitter flow to it when the isolation policy
fires, and migrate a stressed instance's heaviest flows to a dedicated
full-table engine when the MCA² stress policy fires (paper §4.3.1).  A
self-healing floor replaces crashed instances regardless of policy state,
so fault injection triggers failover while hysteresis keeps the policy
itself from flapping.  It is the service's only control loop.

Everything here must stay deterministic: no wall clock, no unseeded
randomness, instance names from a monotonic sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Sequence

from repro.autoscale.policies import (
    HOLD,
    HysteresisPolicy,
    IsolationPolicy,
    LoadSignals,
    ScalingDecision,
    ScalingPolicy,
)
from repro.telemetry.registry import percentile_from_counts

#: Metric names the load driver emits and the autoscaler watches.  Shared
#: constants so the two subsystems cannot drift apart silently.
LOAD_OFFERED_BYTES = "load_offered_bytes_total"
LOAD_SERVED_BYTES = "load_served_bytes_total"
LOAD_QUEUE_DEPTH = "load_queue_depth_bytes"
LOAD_QUEUE_LATENCY = "load_queue_latency_seconds"
LOAD_SLO_VIOLATIONS = "load_slo_violations_total"
LOAD_PACKETS = "load_packets_total"
LOAD_SUPPRESSED = "load_suppressed_packets_total"
FAULT_EVENTS = "fault_events_total"
#: Instance counters the MCA² stress feed reads (the instances own them).
DPI_BYTES = "dpi_bytes_scanned_total"
DPI_MATCHES = "dpi_matches_total"

#: Queue-latency histogram bounds (seconds): sub-millisecond to 5s, spaced
#: around typical SLOs (tens of milliseconds).
QUEUE_LATENCY_BUCKETS = (
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


@dataclass(frozen=True)
class AutoscaleEvent:
    """One applied action (not policy votes — those may be held)."""

    time: float
    epoch: int
    action: str  # "up" | "down" | "heal" | "isolate" | "migrate"
    instance: str
    reason: str


@dataclass
class _CounterWatch:
    """Per-metric-name snapshot differ over every label variant."""

    seen: dict[tuple[tuple[str, Any], ...], float] = field(default_factory=dict)

    def deltas(
        self, metrics: Iterable[Any]
    ) -> dict[tuple[tuple[str, Any], ...], float]:
        """Increment per label set since the previous call."""
        out = {}
        for metric in metrics:
            key = tuple(sorted(metric.labels.items()))
            out[key] = metric.value - self.seen.get(key, 0.0)
            self.seen[key] = metric.value
        return out

    def delta(self, metrics: Iterable[Any]) -> float:
        total = 0.0
        for increment in self.deltas(metrics).values():
            total += increment
        return total


class Autoscaler:
    """Watches one controller's registry; scales its instance pool."""

    def __init__(
        self,
        controller: Any,
        *,
        rate_bytes_per_second: float,
        epoch_seconds: float,
        slo_seconds: float,
        policies: "Sequence[ScalingPolicy] | None" = None,
        min_instances: int = 1,
        max_instances: int = 8,
        prefix: str = "dpi-auto",
        provision_kwargs: "dict[str, Any] | None" = None,
    ) -> None:
        if min_instances < 1:
            raise ValueError(f"min_instances must be >= 1: {min_instances}")
        if max_instances < min_instances:
            raise ValueError(
                f"max_instances {max_instances} < min_instances {min_instances}"
            )
        self.controller = controller
        self.manager = controller.instances
        self.registry = controller.telemetry.registry
        self.clock = controller.telemetry.now
        self.policies: list[ScalingPolicy] = (
            list(policies)
            if policies is not None
            else [IsolationPolicy(), HysteresisPolicy()]
        )
        self.rate_bytes_per_second = rate_bytes_per_second
        self.epoch_seconds = epoch_seconds
        self.slo_seconds = slo_seconds
        self.min_instances = min_instances
        self.max_instances = max_instances
        self.prefix = prefix
        self.provision_kwargs = dict(provision_kwargs or {})
        self._sequence = 0
        self._managed: list[str] = []  # shared instances we provisioned
        self._migrate_targets: set[str] = set()  # instances a migrate provisioned
        self._offered = _CounterWatch()
        self._faults = _CounterWatch()
        self._scanned = _CounterWatch()
        self._matched = _CounterWatch()
        self._latency_seen: dict[tuple[tuple[str, Any], ...], list[int]] = {}
        #: flow_key -> dedicated instance name (the driver honors these).
        self.pins: dict[Hashable, str] = {}
        self.events: list[AutoscaleEvent] = []
        self._instances_gauge = self.registry.gauge("autoscale_instances")
        self._instances_gauge.set(len(self.shared_alive()))

    # -- registry-derived signals ----------------------------------------

    def shared_alive(self) -> list[str]:
        """Alive, non-dedicated instance names, sorted (determinism)."""
        names = []
        for name, instance in self.manager.items():
            if instance.alive and not self.manager.is_dedicated(name):
                names.append(name)
        return sorted(names)

    def _windowed_p99(self) -> float:
        bounds: "tuple[float, ...] | None" = None
        aggregate: "list[int] | None" = None
        for histogram in self.registry.collect_named(LOAD_QUEUE_LATENCY):
            key = tuple(sorted(histogram.labels.items()))
            counts = list(histogram.bucket_counts)
            previous = self._latency_seen.get(key)
            self._latency_seen[key] = counts
            if previous is not None:
                counts = [now - then for now, then in zip(counts, previous)]
            if aggregate is None:
                bounds = tuple(histogram.bounds)
                aggregate = counts
            else:
                aggregate = [a + b for a, b in zip(aggregate, counts)]
        if aggregate is None or bounds is None:
            return 0.0
        return percentile_from_counts(bounds, aggregate, 0.99)

    def observe(
        self,
        *,
        epoch: int,
        heavy_flow: Hashable | None = None,
        heavy_share: float = 0.0,
        heavy_chain: "int | None" = None,
        anomalous_flows: "tuple | Sequence" = (),
    ) -> LoadSignals:
        """Derive this tick's :class:`LoadSignals` from the registry."""
        alive = self.shared_alive()
        offered = self._offered.delta(
            self.registry.collect_named(LOAD_OFFERED_BYTES)
        )
        fault_delta = self._faults.delta(
            self.registry.collect_named(FAULT_EVENTS)
        )
        queue_bytes = 0.0
        for gauge in self.registry.collect_named(LOAD_QUEUE_DEPTH):
            owner = gauge.labels.get("instance")
            if owner in self.manager and self.manager.is_dedicated(owner):
                continue
            queue_bytes += gauge.value
        capacity = (
            max(1, len(alive)) * self.rate_bytes_per_second * self.epoch_seconds
        )
        scanned = self._scanned.deltas(self.registry.collect_named(DPI_BYTES))
        matched = self._matched.deltas(self.registry.collect_named(DPI_MATCHES))
        instance_load = tuple(
            (
                name,
                scanned.get((("instance", name),), 0),
                matched.get((("instance", name),), 0),
            )
            for name in alive
        )
        return LoadSignals(
            epoch=epoch,
            now=self.clock(),
            alive_instances=len(alive),
            utilization=offered / capacity if capacity else 0.0,
            queue_bytes=queue_bytes,
            p99_latency_seconds=self._windowed_p99(),
            slo_seconds=self.slo_seconds,
            fault_active=fault_delta > 0,
            heavy_share=heavy_share,
            heavy_flow=heavy_flow,
            heavy_chain=heavy_chain,
            anomalous_flows=tuple(anomalous_flows),
            instance_load=instance_load,
        )

    # -- acting ----------------------------------------------------------

    def _next_name(self, kind: str = "") -> str:
        self._sequence += 1
        if kind:
            return f"{self.prefix}-{kind}-{self._sequence}"
        return f"{self.prefix}-{self._sequence}"

    def _actions_counter(self, action: str) -> Any:
        return self.registry.counter("autoscale_actions_total", action=action)

    def _record(self, epoch: int, action: str, instance: str, reason: str) -> None:
        event = AutoscaleEvent(
            time=self.clock(),
            epoch=epoch,
            action=action,
            instance=instance,
            reason=reason,
        )
        self.events.append(event)
        self._actions_counter(action).inc()

    def _provision_shared(self, epoch: int, action: str, reason: str) -> str:
        name = self._next_name()
        self.manager.provision(name, **self.provision_kwargs)
        self._managed.append(name)
        self._record(epoch, action, name, reason)
        return name

    def _decide(self, signals: LoadSignals) -> ScalingDecision:
        for policy in self.policies:
            decision = policy.decide(signals)
            if decision.action != "hold":
                return decision
        return HOLD

    def _apply_isolate(self, epoch: int, decision: ScalingDecision) -> bool:
        """Provision a dedicated instance and pin the decision's flow."""
        if decision.flow_key is None or decision.flow_key in self.pins:
            return False
        name = self._next_name("iso")
        chain_ids = (
            (decision.chain_id,) if decision.chain_id is not None else None
        )
        kwargs = dict(self.provision_kwargs)
        kwargs["chain_ids"] = chain_ids
        kwargs["dedicated"] = True
        self.manager.provision(name, **kwargs)
        self.pins[decision.flow_key] = name
        self._record(epoch, "isolate", name, decision.reason)
        return True

    def _apply_migrate(self, epoch: int, decision: ScalingDecision) -> None:
        """Move the stressed instance's heaviest flows to a dedicated
        engine serving its chains, and pin them there.  The target is one
        an earlier migrate provisioned (never an isolation instance)."""
        source_name = decision.instance
        chain_ids = self.manager.chain_filter_of(source_name)
        target = next(
            (
                name
                for name in self.manager.dedicated_names()
                if name in self._migrate_targets
                and self.manager[name].alive
                and self.manager.chain_filter_of(name) == chain_ids
            ),
            None,
        )
        if target is None:
            target = self._next_name("mca2")
            kwargs = dict(self.provision_kwargs)
            kwargs.update(chain_ids=chain_ids, dedicated=True)
            self.manager.provision(target, **kwargs)
            self._migrate_targets.add(target)
        source = self.manager[source_name]
        moved = []
        for flow_key, _work in source.heavy_flows(top=decision.flows):
            if flow_key in self.pins:  # isolated earlier: stale work only
                source.drop_flow(flow_key)
                continue
            if not self.controller.migrate_flow(flow_key, source_name, target):
                source.drop_flow(flow_key)  # stateless: no scan state to move
            self.pins[flow_key] = target
            moved.append(flow_key)
        self._record(
            epoch,
            "migrate",
            target,
            f"{decision.reason}; moved {len(moved)} flow(s) from {source_name}",
        )

    def isolate_now(
        self,
        *,
        epoch: int,
        heavy_flow: Hashable | None = None,
        heavy_share: float = 0.0,
        heavy_chain: "int | None" = None,
        anomalous_flows: "tuple | Sequence" = (),
    ) -> list[AutoscaleEvent]:
        """Placement-time isolation: pin heavy hitters *before* the epoch.

        The load driver knows each epoch's per-flow byte totals before it
        places a single packet, so isolation decisions can act immediately
        instead of leaving the dedicated instance idle until the next
        epoch.  Only stateless :class:`IsolationPolicy` entries are
        consulted — stateful policies (hysteresis streaks, cooldowns) and
        the registry-delta windows belong exclusively to :meth:`tick`,
        which still runs at the end of the epoch; its isolate branch then
        no-ops because the flow is already pinned.
        """
        signals = LoadSignals(
            epoch=epoch,
            now=self.clock(),
            alive_instances=len(self.shared_alive()),
            utilization=0.0,
            queue_bytes=0.0,
            p99_latency_seconds=0.0,
            slo_seconds=self.slo_seconds,
            fault_active=False,
            heavy_share=heavy_share,
            heavy_flow=heavy_flow,
            heavy_chain=heavy_chain,
            anomalous_flows=tuple(anomalous_flows),
        )
        applied_from = len(self.events)
        for policy in self.policies:
            if not isinstance(policy, IsolationPolicy):
                continue
            decision = policy.decide(signals)
            if decision.action == "isolate":
                self._apply_isolate(epoch, decision)
        return self.events[applied_from:]

    def tick(
        self,
        *,
        epoch: int,
        heavy_flow: Hashable | None = None,
        heavy_share: float = 0.0,
        heavy_chain: "int | None" = None,
        anomalous_flows: "tuple | Sequence" = (),
    ) -> list[AutoscaleEvent]:
        """One control-loop iteration; returns the actions applied."""
        signals = self.observe(
            epoch=epoch,
            heavy_flow=heavy_flow,
            heavy_share=heavy_share,
            heavy_chain=heavy_chain,
            anomalous_flows=anomalous_flows,
        )
        applied_from = len(self.events)

        # Self-healing floor: crashed instances are replaced immediately,
        # outside any policy cooldown — this is the failover path.
        while len(self.shared_alive()) < self.min_instances:
            self._provision_shared(
                epoch, "heal", f"alive pool below floor {self.min_instances}"
            )

        decision = self._decide(signals)
        if decision.action == "up":
            if len(self.shared_alive()) < self.max_instances:
                self._provision_shared(epoch, "up", decision.reason)
        elif decision.action == "down":
            target = self._newest_managed_alive()
            if target is not None and len(self.shared_alive()) > self.min_instances:
                self.manager.decommission(target)
                self._managed.remove(target)
                self._record(epoch, "down", target, decision.reason)
        elif decision.action == "isolate":
            self._apply_isolate(epoch, decision)
        elif decision.action == "migrate":
            self._apply_migrate(epoch, decision)

        self._instances_gauge.set(len(self.shared_alive()))
        return self.events[applied_from:]

    def _newest_managed_alive(self) -> "str | None":
        for name in reversed(self._managed):
            instance = self.manager.get(name)
            if instance is not None and instance.alive:
                return name
        return None
