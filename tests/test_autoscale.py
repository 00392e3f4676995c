"""Unit tests for repro.autoscale: policies and the elastic controller.

Policies are pure decision functions, so they are tested against
hand-built signals; the Autoscaler itself is tested against a real
DPIController + InstanceManager with metrics written straight into the
telemetry registry, exactly as the load driver writes them.
"""

import pytest

from repro.autoscale import (
    LOAD_OFFERED_BYTES,
    LOAD_QUEUE_LATENCY,
    QUEUE_LATENCY_BUCKETS,
    Autoscaler,
    HysteresisPolicy,
    IsolationPolicy,
    LoadSignals,
    ThresholdPolicy,
    build_policies,
)
from repro.load.driver import build_load_controller
from repro.load.profiles import CHAIN_FLOOD
from repro.telemetry import TelemetryHub

RATE = 500_000.0  # bytes/second
EPOCH = 0.1
SLO = 0.05


def signals(**overrides):
    base = dict(
        epoch=0,
        now=0.0,
        alive_instances=2,
        utilization=0.5,
        queue_bytes=0.0,
        p99_latency_seconds=0.01,
        slo_seconds=SLO,
        fault_active=False,
    )
    base.update(overrides)
    return LoadSignals(**base)


class TestThresholdPolicy:
    def test_up_on_slo_breach(self):
        decision = ThresholdPolicy().decide(
            signals(p99_latency_seconds=SLO * 2)
        )
        assert decision.action == "up"
        assert "SLO" in decision.reason

    def test_up_on_hot_utilization(self):
        decision = ThresholdPolicy().decide(signals(utilization=0.95))
        assert decision.action == "up"

    def test_down_when_idle(self):
        decision = ThresholdPolicy().decide(
            signals(utilization=0.1, p99_latency_seconds=0.001)
        )
        assert decision.action == "down"

    def test_no_down_below_two_instances(self):
        decision = ThresholdPolicy().decide(
            signals(alive_instances=1, utilization=0.1,
                    p99_latency_seconds=0.001)
        )
        assert decision.action == "hold"

    def test_no_down_with_backlog(self):
        decision = ThresholdPolicy().decide(
            signals(utilization=0.1, p99_latency_seconds=0.001,
                    queue_bytes=5000.0)
        )
        assert decision.action == "hold"

    def test_hold_in_band(self):
        assert ThresholdPolicy().decide(signals()).action == "hold"


class TestHysteresisPolicy:
    def test_up_needs_consecutive_votes(self):
        policy = HysteresisPolicy(up_after=2)
        breach = signals(p99_latency_seconds=SLO * 2)
        assert policy.decide(breach).action == "hold"
        assert policy.decide(breach).action == "up"

    def test_interrupted_streak_resets(self):
        policy = HysteresisPolicy(up_after=2)
        breach = signals(p99_latency_seconds=SLO * 2)
        assert policy.decide(breach).action == "hold"
        assert policy.decide(signals()).action == "hold"
        assert policy.decide(breach).action == "hold"  # streak restarted

    def test_cooldown_after_action(self):
        policy = HysteresisPolicy(up_after=1, cooldown_epochs=3)
        breach = signals(p99_latency_seconds=SLO * 2)
        assert policy.decide(breach).action == "up"
        for _ in range(3):
            decision = policy.decide(breach)
            assert decision.action == "hold"
            assert decision.reason == "cooldown"
        assert policy.decide(breach).action == "up"

    def test_fault_window_freezes_everything(self):
        policy = HysteresisPolicy(up_after=1, fault_hold_epochs=2)
        breach = signals(p99_latency_seconds=SLO * 2, fault_active=True)
        decision = policy.decide(breach)
        assert decision.action == "hold"
        assert "fault" in decision.reason
        # The freeze outlasts the fault by fault_hold_epochs ticks.
        calm_breach = signals(p99_latency_seconds=SLO * 2)
        assert policy.decide(calm_breach).action == "hold"
        assert policy.decide(calm_breach).action == "hold"
        assert policy.decide(calm_breach).action == "up"

    def test_down_debounced_longer_than_up(self):
        policy = HysteresisPolicy(up_after=1, down_after=3)
        idle = signals(utilization=0.1, p99_latency_seconds=0.001)
        assert policy.decide(idle).action == "hold"
        assert policy.decide(idle).action == "hold"
        assert policy.decide(idle).action == "down"


class TestIsolationPolicy:
    def test_isolates_dominant_flow(self):
        decision = IsolationPolicy(heavy_share_threshold=0.3).decide(
            signals(heavy_flow=17, heavy_share=0.6, heavy_chain=CHAIN_FLOOD)
        )
        assert decision.action == "isolate"
        assert decision.flow_key == 17
        assert decision.chain_id == CHAIN_FLOOD

    def test_holds_below_threshold(self):
        decision = IsolationPolicy(heavy_share_threshold=0.5).decide(
            signals(heavy_flow=17, heavy_share=0.2)
        )
        assert decision.action == "hold"

    def test_holds_without_heavy_flow(self):
        assert IsolationPolicy().decide(signals()).action == "hold"

    def test_flagged_flow_wins_over_heavy_hitter(self):
        decision = IsolationPolicy(heavy_share_threshold=0.3).decide(
            signals(
                heavy_flow=17,
                heavy_share=0.9,
                heavy_chain=CHAIN_FLOOD,
                anomalous_flows=((5, 200), (9, 200)),
            )
        )
        assert decision.action == "isolate"
        assert (decision.flow_key, decision.chain_id) == (5, 200)
        assert "anomalous" in decision.reason

    def test_isolate_anomalous_false_ignores_flagged_flows(self):
        policy = IsolationPolicy(isolate_anomalous=False)
        assert policy.decide(signals(anomalous_flows=((5, 200),))).action == "hold"
        decision = policy.decide(
            signals(anomalous_flows=((5, 200),), heavy_flow=17, heavy_share=0.9)
        )
        assert decision.flow_key == 17


class TestBuildPolicies:
    def test_known_stacks(self):
        assert [p.name for p in build_policies("threshold")] == ["threshold"]
        assert [p.name for p in build_policies("hysteresis")] == ["hysteresis"]
        assert [p.name for p in build_policies("isolation")] == [
            "isolation",
            "hysteresis",
        ]

    def test_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown policy"):
            build_policies("nope")


def build_system(*, instances=1, policies=None, **kwargs):
    hub = TelemetryHub(tracing=False)
    controller = build_load_controller(telemetry=hub)
    for index in range(instances):
        controller.instances.provision(f"dpi-{index + 1}", kernel="flat")
    autoscaler = Autoscaler(
        controller,
        rate_bytes_per_second=RATE,
        epoch_seconds=EPOCH,
        slo_seconds=SLO,
        policies=policies if policies is not None else [ThresholdPolicy()],
        **kwargs,
    )
    return controller, autoscaler


def feed_load(registry, name, offered_bytes, latency):
    registry.counter(LOAD_OFFERED_BYTES, instance=name).inc(offered_bytes)
    histogram = registry.histogram(
        LOAD_QUEUE_LATENCY, buckets=QUEUE_LATENCY_BUCKETS, instance=name
    )
    for _ in range(10):
        histogram.observe(latency)


class TestAutoscaler:
    def test_scales_up_on_breach(self):
        controller, autoscaler = build_system(max_instances=3)
        feed_load(controller.telemetry.registry, "dpi-1", 10_000, SLO * 3)
        events = autoscaler.tick(epoch=0)
        assert [event.action for event in events] == ["up"]
        assert events[0].instance in controller.instances
        assert controller.instances[events[0].instance].alive

    def test_respects_max_instances(self):
        controller, autoscaler = build_system(max_instances=2)
        for epoch in range(4):
            feed_load(
                controller.telemetry.registry, "dpi-1", 10_000, SLO * 3
            )
            autoscaler.tick(epoch=epoch)
        assert len(autoscaler.shared_alive()) == 2

    def test_scales_down_and_drops_metrics(self):
        controller, autoscaler = build_system(max_instances=3)
        registry = controller.telemetry.registry
        feed_load(registry, "dpi-1", 10_000, SLO * 3)
        up_events = autoscaler.tick(epoch=0)
        added = up_events[0].instance
        feed_load(registry, added, 100, 0.0001)
        events = autoscaler.tick(epoch=1)
        assert [event.action for event in events] == ["down"]
        assert events[0].instance == added
        assert added not in controller.instances
        # decommission() drops every metric labeled with the instance.
        assert registry.get(LOAD_OFFERED_BYTES, instance=added) is None

    def test_never_decommissions_below_min(self):
        controller, autoscaler = build_system(instances=2, min_instances=2)
        registry = controller.telemetry.registry
        feed_load(registry, "dpi-1", 100, 0.0001)
        events = autoscaler.tick(epoch=0)
        assert events == []
        assert len(autoscaler.shared_alive()) == 2

    def test_heals_crashed_instance(self):
        controller, autoscaler = build_system()
        controller.instances["dpi-1"].crash()
        events = autoscaler.tick(epoch=0)
        assert [event.action for event in events] == ["heal"]
        assert len(autoscaler.shared_alive()) == 1

    def test_isolation_pins_heavy_flow_once(self):
        controller, autoscaler = build_system(
            policies=[IsolationPolicy(heavy_share_threshold=0.3)]
        )
        events = autoscaler.tick(
            epoch=0, heavy_flow=42, heavy_share=0.7, heavy_chain=CHAIN_FLOOD
        )
        assert [event.action for event in events] == ["isolate"]
        name = events[0].instance
        assert controller.instances.is_dedicated(name)
        assert autoscaler.pins[42] == name
        assert name not in autoscaler.shared_alive()
        # A second identical tick must not provision another instance.
        again = autoscaler.tick(
            epoch=1, heavy_flow=42, heavy_share=0.7, heavy_chain=CHAIN_FLOOD
        )
        assert again == []

    def test_isolate_now_pins_flagged_flow_to_a_chain_scoped_instance(self):
        controller, autoscaler = build_system(policies=[IsolationPolicy()])
        events = autoscaler.isolate_now(
            epoch=0, anomalous_flows=((7, CHAIN_FLOOD),)
        )
        assert [event.action for event in events] == ["isolate"]
        name = events[0].instance
        assert autoscaler.pins == {7: name}
        assert controller.instances.is_dedicated(name)
        assert controller.instances.chain_filter_of(name) == (CHAIN_FLOOD,)
        assert set(controller.instances[name].scanner.chain_map) == {CHAIN_FLOOD}
        assert name not in autoscaler.shared_alive()

    def test_windowed_p99_resets_between_ticks(self):
        controller, autoscaler = build_system()
        registry = controller.telemetry.registry
        feed_load(registry, "dpi-1", 1000, SLO * 4)
        first = autoscaler.observe(epoch=0)
        assert first.p99_latency_seconds > SLO
        # No new observations: the *windowed* p99 collapses to zero even
        # though the cumulative histogram still holds the old spike.
        second = autoscaler.observe(epoch=1)
        assert second.p99_latency_seconds == 0.0

    def test_fault_signal_from_registry(self):
        controller, autoscaler = build_system()
        controller.telemetry.record_fault(
            "instance_crash", "dpi-1", phase="inject"
        )
        observed = autoscaler.observe(epoch=0)
        assert observed.fault_active
        assert not autoscaler.observe(epoch=1).fault_active

    def test_actions_counted_in_registry(self):
        controller, autoscaler = build_system(max_instances=3)
        feed_load(controller.telemetry.registry, "dpi-1", 10_000, SLO * 3)
        autoscaler.tick(epoch=0)
        registry = controller.telemetry.registry
        assert registry.value("autoscale_actions_total", action="up") == 1
        assert registry.value("autoscale_instances") == 2

    def test_rejects_bad_bounds(self):
        controller, _ = build_system()
        with pytest.raises(ValueError, match="min_instances"):
            Autoscaler(
                controller,
                rate_bytes_per_second=RATE,
                epoch_seconds=EPOCH,
                slo_seconds=SLO,
                min_instances=0,
            )
        with pytest.raises(ValueError, match="max_instances"):
            Autoscaler(
                controller,
                rate_bytes_per_second=RATE,
                epoch_seconds=EPOCH,
                slo_seconds=SLO,
                min_instances=3,
                max_instances=2,
            )
