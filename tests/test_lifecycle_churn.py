"""Instance churn under load: provision/decommission must not leak.

The elastic autoscaler cycles instances far more aggressively than the
static topologies earlier tests exercise, so this suite hammers the
:class:`~repro.core.lifecycle.InstanceManager` facade directly: repeated
provision/decommission rounds while traffic keeps flowing, asserting that
no instance object or registry label outlives its decommission.
"""

import pytest

from repro.load.driver import build_load_controller
from repro.load.generator import LoadGenerator
from repro.load.profiles import LoadSpec
from repro.telemetry import TelemetryHub


def fresh_controller():
    return build_load_controller(telemetry=TelemetryHub(tracing=False))


def traffic(flows=200, epochs=1, seed=5):
    """A deterministic batch of (flow_id, chain_id, payload) work items."""
    generator = LoadGenerator(
        LoadSpec(flows=flows, epochs=epochs, seed=seed,
                 max_packets_per_epoch=400)
    )
    return [batch.items for batch in generator.batches()]


REGEX = dict(kernel="regex")


class TestFlatChurn:
    def test_repeated_cycles_leave_no_trace(self):
        controller = fresh_controller()
        registry = controller.telemetry.registry
        batches = traffic()
        for round_number in range(8):
            name = f"churn-{round_number}"
            instance = controller.instances.provision(name, kernel="flat")
            for flow_id, chain_id, payload, _ in batches[0]:
                instance.inspect(payload, chain_id=chain_id, flow_key=flow_id)
            registry.counter(
                "load_packets_total", instance=name
            ).inc(len(batches[0]))
            controller.instances.decommission(name)
            assert name not in controller.instances
            # Every label variant carrying this instance's name is gone.
            for metric in registry.collect():
                assert metric.labels.get("instance") != name
        assert sorted(controller.instances) == []

    def test_interleaved_pool_never_cross_contaminates(self):
        controller = fresh_controller()
        batches = traffic()
        survivors = []
        for round_number in range(6):
            name = f"pool-{round_number}"
            controller.instances.provision(name, kernel="flat")
            survivors.append(name)
            if len(survivors) > 2:
                victim = survivors.pop(0)
                controller.instances.decommission(victim)
            for keeper in survivors:
                instance = controller.instances[keeper]
                for flow_id, chain_id, payload, _ in batches[0][:50]:
                    instance.inspect(payload, chain_id=chain_id, flow_key=flow_id)
        assert sorted(controller.instances) == sorted(survivors)


class TestRegexCachedChurn:
    def test_dedicated_instances_churn_cleanly_too(self):
        controller = fresh_controller()
        batch = traffic()[0]
        name = "iso"
        instance = controller.instances.provision(
            name, chain_ids=(200,), dedicated=True, **REGEX
        )
        assert controller.instances.is_dedicated(name)
        flood = [item for item in batch if item[1] == 200]
        for flow_id, chain_id, payload, _ in flood[:20]:
            instance.inspect(payload, chain_id=chain_id, flow_key=flow_id)
        controller.instances.decommission(name)
        assert not controller.instances.is_dedicated(name)

    def test_crash_then_decommission_is_idempotent(self):
        controller = fresh_controller()
        instance = controller.instances.provision("dpi-2", **REGEX)
        instance.inspect(b"warm up the cache", chain_id=100, flow_key=1)
        instance.crash()
        # Decommissioning an already-crashed instance must not raise or
        # bring it back.
        controller.instances.decommission("dpi-2")
        assert "dpi-2" not in controller.instances
        assert not instance.alive


class TestAutoscalerChurn:
    def test_scale_cycle_leaves_no_residue(self):
        from repro.autoscale import Autoscaler, ThresholdPolicy
        from repro.autoscale.controller import (
            LOAD_OFFERED_BYTES,
            LOAD_QUEUE_LATENCY,
            QUEUE_LATENCY_BUCKETS,
        )

        controller = fresh_controller()
        controller.instances.provision("dpi-1", **REGEX)
        autoscaler = Autoscaler(
            controller,
            rate_bytes_per_second=100_000.0,
            epoch_seconds=0.1,
            slo_seconds=0.05,
            policies=[ThresholdPolicy()],
            max_instances=3,
            provision_kwargs=dict(REGEX),
        )
        registry = controller.telemetry.registry

        def feed(name, latency):
            registry.counter(LOAD_OFFERED_BYTES, instance=name).inc(5_000)
            histogram = registry.histogram(
                LOAD_QUEUE_LATENCY,
                buckets=QUEUE_LATENCY_BUCKETS,
                instance=name,
            )
            for _ in range(10):
                histogram.observe(latency)

        feed("dpi-1", 0.2)
        up = autoscaler.tick(epoch=0)
        assert [event.action for event in up] == ["up"]
        added = up[0].instance
        controller.instances[added].inspect(b"a scan on the new one", chain_id=100)
        assert controller.instances[added].config.kernel == "regex"
        feed(added, 0.0001)
        down = autoscaler.tick(epoch=1)
        assert [event.action for event in down] == ["down"]
        assert down[0].instance == added
        controller.instances["dpi-1"].inspect(b"still serving", chain_id=100)
        assert sorted(controller.instances) == ["dpi-1"]
        for metric in registry.collect():
            assert metric.labels.get("instance") != added


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
