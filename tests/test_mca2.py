"""Unit and integration tests for MCA^2-style robustness (Section 4.3.1)."""

import pytest

from repro.core.controller import DPIController
from repro.core.mca2 import StressEvent, StressMonitor
from repro.core.messages import AddPatternsMessage, RegisterMiddleboxMessage
from repro.core.patterns import Pattern
from repro.net.steering import PolicyChain
from repro.workloads.attacks import (
    heavy_payload,
    match_flood_payload,
    near_miss_payload,
)
from repro.workloads.patterns import generate_snort_like
from repro.workloads.traffic import TrafficGenerator

CHAIN = 100


def build_controller(patterns):
    controller = DPIController()
    controller.handle_message(
        RegisterMiddleboxMessage(middlebox_id=1, name="ids", stateful=True)
    )
    controller.handle_message(
        AddPatternsMessage(
            middlebox_id=1,
            patterns=[Pattern(i, p) for i, p in enumerate(patterns)],
        )
    )
    controller.policy_chains_changed(
        {"c": PolicyChain("c", ("ids",), chain_id=CHAIN)}
    )
    return controller


@pytest.fixture(scope="module")
def snort_patterns():
    return generate_snort_like(count=150, seed=3)


class TestAttackWorkloads:
    def test_near_miss_payload_is_deterministic(self, snort_patterns):
        a = near_miss_payload(snort_patterns, 500, seed=1)
        b = near_miss_payload(snort_patterns, 500, seed=1)
        assert a == b
        assert len(a) == 500

    def test_heavy_payload_contains_matches(self, snort_patterns):
        from repro.core.aho_corasick import AhoCorasick

        payload = heavy_payload(snort_patterns, 3000, seed=2)
        ac = AhoCorasick(snort_patterns)
        assert ac.count_matches(payload) > 0

    def test_validation(self, snort_patterns):
        with pytest.raises(ValueError):
            near_miss_payload([], 10)
        with pytest.raises(ValueError):
            near_miss_payload(snort_patterns, 0)

    def test_flood_payload_is_match_dense(self, snort_patterns):
        from repro.core.aho_corasick import AhoCorasick

        flood = match_flood_payload(snort_patterns, 3000)
        ac = AhoCorasick(snort_patterns)
        # At least one match every ~40 bytes on average.
        assert ac.count_matches(flood) > len(flood) / 40

    def test_attack_costs_more_per_byte_than_benign(self, snort_patterns):
        """The premise of MCA^2: heavy traffic inflates the engine's
        per-byte cost (here via the match-handling path)."""
        import time

        controller = build_controller(snort_patterns)
        instance = controller.instances.provision("dpi-x")
        benign = TrafficGenerator(seed=1).benign_payload(3000)
        attack = match_flood_payload(snort_patterns, 3000)

        def cost(payload, key):
            # Best of several rounds: robust to scheduler noise under load.
            best = float("inf")
            for round_index in range(5):
                started = time.perf_counter()
                for index in range(10):
                    instance.inspect(
                        payload, chain_id=CHAIN, flow_key=f"{key}-{round_index}-{index}"
                    )
                best = min(
                    best, (time.perf_counter() - started) / (10 * len(payload))
                )
            return best

        cost(benign, "warmup")
        # Typical ratio is ~2x; 1.2 leaves headroom for noisy machines.
        assert cost(attack, "attack") > cost(benign, "benign") * 1.2


class TestStressMonitor:
    def _warm(self, controller, instance, patterns, packets=30):
        generator = TrafficGenerator(seed=9)
        for index in range(packets):
            instance.inspect(
                generator.benign_payload(800), chain_id=CHAIN, flow_key=f"benign-{index}"
            )

    def test_calibration_records_baseline(self, snort_patterns):
        controller = build_controller(snort_patterns)
        instance = controller.instances.provision("dpi-1")
        monitor = StressMonitor(controller)
        self._warm(controller, instance, snort_patterns)
        baselines = monitor.calibrate()
        assert "dpi-1" in baselines
        assert baselines["dpi-1"] > 0

    def test_no_stress_under_benign_traffic(self, snort_patterns):
        controller = build_controller(snort_patterns)
        instance = controller.instances.provision("dpi-1")
        monitor = StressMonitor(controller, threshold_factor=3.0)
        self._warm(controller, instance, snort_patterns)
        monitor.calibrate()
        self._warm(controller, instance, snort_patterns)
        assert monitor.observe() == []

    def test_attack_detected_and_mitigated(self, snort_patterns):
        controller = build_controller(snort_patterns)
        instance = controller.instances.provision("dpi-1")
        monitor = StressMonitor(controller, threshold_factor=1.5)
        self._warm(controller, instance, snort_patterns, packets=40)
        monitor.calibrate()
        # Attack: a few flows sending complexity-attack payloads.
        attack = match_flood_payload(snort_patterns, 3000)
        for index in range(15):
            instance.inspect(attack, chain_id=CHAIN, flow_key=f"attacker-{index % 3}")
        events = monitor.observe()
        assert events, "stress not detected"
        assert events[0].stress_factor > 1.5
        action = monitor.mitigate(events[0])
        assert action.dedicated_created
        assert action.migrated_flows
        # Migrated flows now live on the dedicated instance.
        dedicated = controller.instances[action.dedicated_instance]
        for flow_key in action.migrated_flows:
            assert dedicated.export_flow(flow_key) is not None
        assert dedicated.config.layout == "full"

    def test_consecutive_mitigations_divert_different_flows(self, snort_patterns):
        """A migrated flow leaves the source's heavy-flow ranking: the next
        mitigation of the same instance moves the next-heaviest flows, not
        nothing (it used to be handed the flows it had just given away)."""
        controller = build_controller(snort_patterns)
        instance = controller.instances.provision("dpi-1")
        monitor = StressMonitor(controller, heavy_flows_per_mitigation=3)
        attack = match_flood_payload(snort_patterns, 1500)
        for index in range(8):
            for _ in range(1 + index % 3):
                instance.inspect(attack, chain_id=CHAIN, flow_key=f"attacker-{index}")
        event = StressEvent("dpi-1", ns_per_byte=10.0, baseline_ns_per_byte=1.0)
        first = monitor.mitigate(event)
        second = monitor.mitigate(event)
        assert len(first.migrated_flows) == len(second.migrated_flows) == 3
        assert not set(first.migrated_flows) & set(second.migrated_flows)
        remaining = {key for key, _ in instance.heavy_flows(top=8)}
        assert len(remaining) == 2
        assert not remaining & set(first.migrated_flows + second.migrated_flows)

    def test_migration_callback_invoked(self, snort_patterns):
        controller = build_controller(snort_patterns)
        instance = controller.instances.provision("dpi-1")
        monitor = StressMonitor(controller, threshold_factor=1.2)
        self._warm(controller, instance, snort_patterns, packets=40)
        monitor.calibrate()
        attack = match_flood_payload(snort_patterns, 3000)
        for _ in range(15):
            instance.inspect(attack, chain_id=CHAIN, flow_key="attacker")
        steering_calls = []
        monitor.on_flow_migrated = lambda flow, target: steering_calls.append(
            (flow, target)
        )
        actions = monitor.observe_and_mitigate()
        if actions and actions[0].migrated_flows:
            assert steering_calls

    def test_dedicated_instance_reused(self, snort_patterns):
        controller = build_controller(snort_patterns)
        instance = controller.instances.provision("dpi-1")
        monitor = StressMonitor(controller, threshold_factor=1.2)
        self._warm(controller, instance, snort_patterns, packets=40)
        monitor.calibrate()
        attack = match_flood_payload(snort_patterns, 3000)
        for _ in range(15):
            instance.inspect(attack, chain_id=CHAIN, flow_key="attacker")
        events = monitor.observe()
        assert events
        first = monitor.mitigate(events[0])
        second = monitor.mitigate(events[0])
        assert first.dedicated_instance == second.dedicated_instance
        assert not second.dedicated_created

    def test_deallocate_dedicated(self, snort_patterns):
        controller = build_controller(snort_patterns)
        instance = controller.instances.provision("dpi-1")
        monitor = StressMonitor(controller, threshold_factor=1.2)
        self._warm(controller, instance, snort_patterns, packets=40)
        monitor.calibrate()
        attack = match_flood_payload(snort_patterns, 3000)
        for _ in range(15):
            instance.inspect(attack, chain_id=CHAIN, flow_key="attacker")
        for event in monitor.observe():
            monitor.mitigate(event)
        released = monitor.deallocate_dedicated()
        for name in released:
            assert name not in controller.instances

    def test_threshold_validation(self, snort_patterns):
        controller = build_controller(snort_patterns)
        with pytest.raises(ValueError):
            StressMonitor(controller, threshold_factor=1.0)
