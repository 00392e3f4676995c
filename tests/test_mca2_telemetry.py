"""Stress-policy edge cases driven through the registry's instance counters.

The autoscaler reads each shared instance's window of scanned bytes and
matches from the controller's metrics registry, so these tests feed it
synthetic counter increments instead of scans: load levels are exact and
the tests are fully deterministic.
"""

import pytest

from repro.autoscale import Autoscaler, StressPolicy
from repro.core.controller import DPIController
from repro.core.messages import AddPatternsMessage, RegisterMiddleboxMessage
from repro.core.patterns import Pattern
from repro.net.steering import PolicyChain

CHAIN = 100


@pytest.fixture
def controller():
    controller = DPIController()
    controller.handle_message(
        RegisterMiddleboxMessage(middlebox_id=1, name="ids", stateful=True)
    )
    controller.handle_message(
        AddPatternsMessage(middlebox_id=1, patterns=[Pattern(0, b"signature!")])
    )
    controller.policy_chains_changed(
        {"c": PolicyChain("c", ("ids",), chain_id=CHAIN)}
    )
    controller.instances.provision("dpi-1")
    return controller


def stress_loop(controller, **stress):
    policy = StressPolicy(**stress)
    autoscaler = Autoscaler(
        controller,
        rate_bytes_per_second=1e6,
        epoch_seconds=1.0,
        slo_seconds=0.05,
        policies=[policy],
    )
    return policy, autoscaler


def push_load(controller, name, bytes_scanned, matches):
    """Synthesise one window of load for *name* in the registry."""
    registry = controller.telemetry.registry
    registry.counter("dpi_bytes_scanned_total", instance=name).inc(bytes_scanned)
    registry.counter("dpi_matches_total", instance=name).inc(matches)


class TestObserveAndMitigateEdgeCases:
    def test_empty_window_produces_no_events(self, controller):
        policy, autoscaler = stress_loop(controller)
        assert autoscaler.tick(epoch=0) == []
        assert policy.baselines == {}
        assert controller.telemetry.registry.value(
            "autoscale_actions_total", action="migrate", default=None
        ) is None

    def test_window_below_minimum_bytes_is_ignored(self, controller):
        policy, autoscaler = stress_loop(controller, min_window_bytes=1024)
        push_load(controller, "dpi-1", bytes_scanned=4096, matches=0)
        autoscaler.tick(epoch=0)
        assert policy.baselines == {"dpi-1": 1.0}
        # Tiny stressed window: 100 bytes carrying a match every byte.
        push_load(controller, "dpi-1", bytes_scanned=100, matches=100)
        assert autoscaler.tick(epoch=1) == []

    def test_stress_detected_from_registry_counters(self, controller):
        policy, autoscaler = stress_loop(controller, threshold_factor=2.0)
        push_load(controller, "dpi-1", bytes_scanned=10_000, matches=0)
        assert autoscaler.tick(epoch=0) == []
        # 500 matches at 40 work units each: 3 units per byte, 3x baseline.
        push_load(controller, "dpi-1", bytes_scanned=10_000, matches=500)
        (event,) = autoscaler.tick(epoch=1)
        assert event.action == "migrate"
        assert "work 3.00/B is 3.0x its baseline 1.00/B" in event.reason
        registry = controller.telemetry.registry
        assert registry.value("autoscale_actions_total", action="migrate") == 1

    def test_dedicated_instance_reused_across_rounds(self, controller):
        _, autoscaler = stress_loop(controller, threshold_factor=2.0)
        push_load(controller, "dpi-1", bytes_scanned=10_000, matches=0)
        autoscaler.tick(epoch=0)

        push_load(controller, "dpi-1", bytes_scanned=10_000, matches=1000)
        (first,) = autoscaler.tick(epoch=1)
        assert "-mca2-" in first.instance

        push_load(controller, "dpi-1", bytes_scanned=10_000, matches=1000)
        (second,) = autoscaler.tick(epoch=2)
        assert second.instance == first.instance
        assert controller.instances.dedicated_names() == [first.instance]
        registry = controller.telemetry.registry
        assert registry.value("autoscale_actions_total", action="migrate") == 2

    def test_dedicated_instances_are_not_monitored(self, controller):
        _, autoscaler = stress_loop(controller, threshold_factor=2.0)
        push_load(controller, "dpi-1", bytes_scanned=10_000, matches=0)
        autoscaler.tick(epoch=0)
        push_load(controller, "dpi-1", bytes_scanned=10_000, matches=1000)
        (event,) = autoscaler.tick(epoch=1)
        # Heavy load on the dedicated instance must never flag it.
        push_load(controller, event.instance, bytes_scanned=50_000, matches=9000)
        push_load(controller, "dpi-1", bytes_scanned=10_000, matches=0)
        assert autoscaler.tick(epoch=2) == []


class TestInstanceLoadSignal:
    def test_windowed_per_instance_counts(self, controller):
        controller.instances.provision("dpi-0")
        _, autoscaler = stress_loop(controller)
        push_load(controller, "dpi-1", bytes_scanned=5000, matches=7)
        signals = autoscaler.observe(epoch=0)
        assert signals.instance_load == (("dpi-0", 0, 0), ("dpi-1", 5000, 7))
        # The next window only sees what happened since.
        assert autoscaler.observe(epoch=1).instance_load == (
            ("dpi-0", 0, 0),
            ("dpi-1", 0, 0),
        )
        push_load(controller, "dpi-1", bytes_scanned=100, matches=0)
        controller.instances["dpi-0"].crash()
        assert autoscaler.observe(epoch=2).instance_load == (("dpi-1", 100, 0),)

    def test_reading_the_feed_creates_no_metric(self, controller):
        _, autoscaler = stress_loop(controller)
        registry = controller.telemetry.registry
        before = [(m.name, m.labels) for m in registry.collect()]
        autoscaler.observe(epoch=0)
        assert [(m.name, m.labels) for m in registry.collect()] == before
