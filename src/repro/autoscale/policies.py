"""Pluggable scaling policies: threshold, hysteresis, isolation, MCA² stress.

A policy is a pure decision function: :class:`LoadSignals` in, one
:class:`ScalingDecision` out.  The :class:`~repro.autoscale.controller.
Autoscaler` owns *acting* on decisions (provisioning, decommissioning,
pinning) and consults its policies in order, taking the first non-hold
answer — so an :class:`IsolationPolicy` placed before a
:class:`HysteresisPolicy` wins when both would fire.

Policies must be deterministic: decisions feed provisioning, provisioning
feeds the telemetry digest, and the acceptance bar is bit-identical digests
across reruns of the same seeded scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Protocol

from repro.core.instance import MATCH_WORK_BYTES


@dataclass(frozen=True)
class LoadSignals:
    """One tick's view of the system, derived from the telemetry registry."""

    epoch: int
    now: float
    alive_instances: int
    #: Offered bytes this window / modeled scan capacity of the alive pool.
    utilization: float
    #: Total unserved backlog across shared instances, bytes.
    queue_bytes: float
    #: Windowed p99 of the modeled queue latency, seconds.
    p99_latency_seconds: float
    slo_seconds: float
    #: True when fault events landed in this window (crash/restart/...).
    fault_active: bool
    #: Largest single flow's share of offered bytes this window (0..1).
    heavy_share: float = 0.0
    heavy_flow: Hashable | None = None
    heavy_chain: int | None = None
    #: Flows the anomaly detector flagged this window and that are not yet
    #: pinned, as sorted ``(flow_key, chain_id)`` pairs.
    anomalous_flows: tuple = ()
    #: ``(name, bytes scanned, matches)`` this window for every alive
    #: shared instance, sorted by name (the MCA² stress feed).
    instance_load: tuple = ()


@dataclass(frozen=True)
class ScalingDecision:
    """What a policy wants done this tick."""

    action: str  # "hold" | "up" | "down" | "isolate" | "migrate"
    reason: str = ""
    flow_key: Hashable | None = None
    chain_id: int | None = None
    #: migrate: the stressed instance, and how many of its heaviest flows
    #: to move to a dedicated engine.
    instance: str | None = None
    flows: int = 0


HOLD = ScalingDecision("hold")


class ScalingPolicy(Protocol):
    name: str

    def decide(self, signals: LoadSignals) -> ScalingDecision: ...


@dataclass
class ThresholdPolicy:
    """Scale up on SLO breach or hot utilization; down when clearly idle.

    Stateless — every breach votes immediately.  Wrap it in a
    :class:`HysteresisPolicy` to debounce.
    """

    high_utilization: float = 0.85
    low_utilization: float = 0.35
    #: Scale down only when p99 is under ``slo * latency_headroom``.
    latency_headroom: float = 0.5
    name: str = "threshold"

    def decide(self, signals: LoadSignals) -> ScalingDecision:
        if signals.p99_latency_seconds > signals.slo_seconds:
            return ScalingDecision(
                "up",
                reason=(
                    f"p99 {signals.p99_latency_seconds * 1e3:.1f}ms over "
                    f"SLO {signals.slo_seconds * 1e3:.1f}ms"
                ),
            )
        if signals.utilization > self.high_utilization:
            return ScalingDecision(
                "up", reason=f"utilization {signals.utilization:.2f} hot"
            )
        if (
            signals.alive_instances > 1
            and signals.utilization < self.low_utilization
            and signals.queue_bytes == 0
            and signals.p99_latency_seconds
            < signals.slo_seconds * self.latency_headroom
        ):
            return ScalingDecision(
                "down", reason=f"utilization {signals.utilization:.2f} idle"
            )
        return HOLD


@dataclass
class HysteresisPolicy:
    """Debounce an inner policy: consecutive votes, cooldown, fault freeze.

    An ``up`` fires only after ``up_after`` consecutive up votes, ``down``
    after ``down_after``; any fired action starts a ``cooldown_epochs``
    window during which everything is held.  Fault activity freezes the
    policy for ``fault_hold_epochs`` ticks — recovery is the lifecycle
    layer's job, and reacting to a crash-induced latency spike by
    provisioning (then decommissioning after restart) is exactly the
    flapping this wrapper exists to prevent.
    """

    inner: ThresholdPolicy = field(default_factory=ThresholdPolicy)
    up_after: int = 2
    down_after: int = 3
    cooldown_epochs: int = 4
    fault_hold_epochs: int = 2
    name: str = "hysteresis"

    def __post_init__(self) -> None:
        self._up_streak = 0
        self._down_streak = 0
        self._cooldown_left = 0
        self._fault_hold_left = 0

    def decide(self, signals: LoadSignals) -> ScalingDecision:
        if signals.fault_active:
            self._fault_hold_left = self.fault_hold_epochs
            self._up_streak = 0
            self._down_streak = 0
            return ScalingDecision("hold", reason="fault window: frozen")
        if self._fault_hold_left > 0:
            self._fault_hold_left -= 1
            return ScalingDecision("hold", reason="post-fault hold")
        if self._cooldown_left > 0:
            self._cooldown_left -= 1
            return ScalingDecision("hold", reason="cooldown")
        vote = self.inner.decide(signals)
        if vote.action == "up":
            self._up_streak += 1
            self._down_streak = 0
            if self._up_streak >= self.up_after:
                self._up_streak = 0
                self._cooldown_left = self.cooldown_epochs
                return vote
            return ScalingDecision("hold", reason=f"up streak {self._up_streak}")
        if vote.action == "down":
            self._down_streak += 1
            self._up_streak = 0
            if self._down_streak >= self.down_after:
                self._down_streak = 0
                self._cooldown_left = self.cooldown_epochs
                return vote
            return ScalingDecision(
                "hold", reason=f"down streak {self._down_streak}"
            )
        self._up_streak = 0
        self._down_streak = 0
        return vote


@dataclass
class IsolationPolicy:
    """MCA²-style heavy-hitter isolation (paper §5.3).

    When one flow owns more than ``heavy_share_threshold`` of the offered
    bytes, ask for a dedicated instance scoped to that flow's chain; the
    autoscaler pins the flow there, taking its pathological payloads out of
    the shared pool's queues.

    Anomaly-detector verdicts are a second trigger: a flagged flow is
    isolated regardless of its byte share (volumetric attacks hide below
    heavy-hitter thresholds by spreading over packets, not bytes).
    Flagged flows win over the heavy hitter — a statistical verdict
    carries more evidence than a single window's byte count.
    """

    heavy_share_threshold: float = 0.35
    isolate_anomalous: bool = True
    name: str = "isolation"

    def decide(self, signals: LoadSignals) -> ScalingDecision:
        if self.isolate_anomalous and signals.anomalous_flows:
            flow_key, chain_id = signals.anomalous_flows[0]
            return ScalingDecision(
                "isolate",
                reason=f"flow {flow_key!r} flagged anomalous",
                flow_key=flow_key,
                chain_id=chain_id,
            )
        if (
            signals.heavy_flow is not None
            and signals.heavy_share >= self.heavy_share_threshold
        ):
            return ScalingDecision(
                "isolate",
                reason=(
                    f"flow {signals.heavy_flow!r} owns "
                    f"{signals.heavy_share:.0%} of offered bytes"
                ),
                flow_key=signals.heavy_flow,
                chain_id=signals.heavy_chain,
            )
        return HOLD


@dataclass
class StressPolicy:
    """MCA² stress detection (paper §4.3.1) as a policy.

    Each instance's first window of at least ``min_window_bytes`` sets its
    baseline work per byte (work = bytes + ``MATCH_WORK_BYTES`` x matches).
    A later window above ``threshold_factor`` x that baseline asks the
    autoscaler to move the instance's ``flows_per_migration`` heaviest
    flows to a dedicated full-table engine, whose per-byte cost a match
    flood cannot inflate.  Counters, not seconds: the same traffic gets
    the same verdict on any machine.
    """

    threshold_factor: float = 2.5
    min_window_bytes: int = 1024
    flows_per_migration: int = 3
    name: str = "stress"

    def __post_init__(self) -> None:
        if self.threshold_factor <= 1.0:
            raise ValueError(
                f"threshold factor must exceed 1.0: {self.threshold_factor}"
            )
        self.baselines: dict[str, float] = {}

    def decide(self, signals: LoadSignals) -> ScalingDecision:
        stressed = HOLD
        for name, scanned, matches in signals.instance_load:
            if scanned < self.min_window_bytes:
                continue
            work = (scanned + MATCH_WORK_BYTES * matches) / scanned
            baseline = self.baselines.setdefault(name, work)
            if stressed is HOLD and work > baseline * self.threshold_factor:
                stressed = ScalingDecision(
                    "migrate",
                    reason=(
                        f"{name} work {work:.2f}/B is {work / baseline:.1f}x "
                        f"its baseline {baseline:.2f}/B"
                    ),
                    instance=name,
                    flows=self.flows_per_migration,
                )
        return stressed


POLICY_NAMES = ("threshold", "hysteresis", "isolation")


def build_policies(name: str) -> list[ScalingPolicy]:
    """CLI helper: a policy stack from its ``--policy`` name."""
    if name == "threshold":
        return [ThresholdPolicy()]
    if name == "hysteresis":
        return [HysteresisPolicy()]
    if name == "isolation":
        return [IsolationPolicy(), HysteresisPolicy()]
    raise KeyError(f"unknown policy: {name!r} (known: {', '.join(POLICY_NAMES)})")
