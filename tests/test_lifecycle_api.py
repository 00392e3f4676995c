"""Regression tests for the unified instance-lifecycle API.

Covers the ``controller.instances`` facade (mapping semantics + lifecycle
verbs), the ``**engine`` forwarding of engine options to
``InstanceConfig``, the typed ``telemetry_snapshot()`` accessor, and the
``migrate_flow`` failure contract.
"""

import warnings

import pytest

from repro.core.controller import DPIController
from repro.core.instance import InstanceUnavailableError
from repro.core.lifecycle import InstanceManager
from repro.core.messages import AddPatternsMessage, RegisterMiddleboxMessage
from repro.core.patterns import Pattern
from repro.net.steering import PolicyChain
from repro.telemetry.export import iter_events
from repro.telemetry.snapshot import TelemetrySnapshot

CHAIN = 100


def make_controller():
    controller = DPIController()
    controller.handle_message(
        RegisterMiddleboxMessage(1, "ids", stateful=True)
    )
    controller.handle_message(
        AddPatternsMessage(1, [Pattern(0, b"evil-sig")])
    )
    controller.policy_chains_changed(
        {"c": PolicyChain("c", ("ids",), chain_id=CHAIN)}
    )
    return controller


class TestInstanceManagerMapping:
    def test_mapping_interface(self):
        controller = make_controller()
        assert isinstance(controller.instances, InstanceManager)
        assert len(controller.instances) == 0
        assert controller.instances == {}
        instance = controller.instances.provision("dpi-1")
        assert controller.instances["dpi-1"] is instance
        assert "dpi-1" in controller.instances
        assert list(controller.instances) == ["dpi-1"]
        assert dict(controller.instances) == {"dpi-1": instance}

    def test_missing_name_error_message(self):
        controller = make_controller()
        with pytest.raises(KeyError, match="no instance named ghost"):
            controller.instances["ghost"]
        with pytest.raises(KeyError, match="no instance named ghost"):
            controller.instances.chain_filter_of("ghost")

    def test_eq_with_plain_dict(self):
        controller = make_controller()
        instance = controller.instances.provision("dpi-1")
        assert controller.instances == {"dpi-1": instance}
        assert controller.instances != {"dpi-1": object()}
        assert controller.instances != 7

    def test_duplicate_provision_rejected(self):
        controller = make_controller()
        controller.instances.provision("dpi-1")
        with pytest.raises(ValueError, match="duplicate instance name"):
            controller.instances.provision("dpi-1")

    def test_decommission_contract(self):
        controller = make_controller()
        instance = controller.instances.provision("dpi-1")
        assert controller.instances.decommission("dpi-1") is instance
        with pytest.raises(KeyError, match="no instance named dpi-1"):
            controller.instances.decommission("dpi-1")
        assert (
            controller.instances.decommission("dpi-1", missing_ok=True)
            is None
        )

    def test_decommission_pops_before_a_raising_drop(self):
        controller = make_controller()
        controller.instances.provision("dpi-1")
        registry = controller.telemetry.registry

        def exploding_drop(**labels):
            raise RuntimeError("registry backend unavailable")

        registry.drop = exploding_drop
        try:
            with pytest.raises(RuntimeError, match="registry backend"):
                controller.instances.decommission("dpi-1")
        finally:
            del registry.drop
        assert "dpi-1" not in controller.instances

    def test_dedicated_metadata(self):
        controller = make_controller()
        controller.instances.provision("dpi-1")
        controller.instances.provision("dpi-hot", dedicated=True)
        assert not controller.instances.is_dedicated("dpi-1")
        assert controller.instances.is_dedicated("dpi-hot")
        assert controller.instances.dedicated_names() == ["dpi-hot"]

    def test_chain_filter_metadata(self):
        controller = make_controller()
        controller.instances.provision("dpi-all")
        controller.instances.provision("dpi-one", chain_ids=[CHAIN])
        assert controller.instances.chain_filter_of("dpi-all") is None
        assert controller.instances.chain_filter_of("dpi-one") == (CHAIN,)


class TestDeprecationShims:
    """The PR 4 ``DPIController`` shims are gone; the facade never warned."""

    def test_facade_verbs_warn_nothing(self):
        controller = make_controller()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            controller.instances.provision("dpi-1")
            controller.instances.refresh()
            controller.instances.build_config()
            controller.instances.decommission("dpi-1")


REGEX = {"kernel": "regex"}


def engine_options_of(instance):
    return {name: getattr(instance.config, name) for name in REGEX}


class TestEngineOptionForwarding:
    """Engine options belong to ``InstanceConfig``; every layer above it
    forwards ``**engine`` without naming them."""

    def test_misspelt_option_is_a_type_error(self):
        controller = make_controller()
        with pytest.raises(TypeError, match="kernal"):
            controller.instances.provision("x", kernal="flat")
        assert "x" not in controller.instances
        with pytest.raises(TypeError, match="kernal"):
            controller.instances.build_config(kernal="flat")
        with pytest.raises(TypeError, match="kernal"):
            controller.instances.plan_groups(max_groups=1, kernal="flat")

    def test_removed_sharding_options_are_rejected(self):
        """Pattern-sharding is gone (PR 24): its kernel name is an unknown
        kernel and its options are unknown keywords."""
        from repro.core.kernels import KERNEL_NAMES, EngineConfigError

        assert KERNEL_NAMES == ("reference", "flat", "regex")
        controller = make_controller()
        with pytest.raises(EngineConfigError) as error:
            controller.instances.build_config(kernel="sharded")
        for name in KERNEL_NAMES:
            assert repr(name) in str(error.value)
        with pytest.raises(TypeError, match="shards"):
            controller.instances.provision("x", shards=2)
        assert "x" not in controller.instances

    def test_instance_config_has_exactly_one_engine_option(self):
        import dataclasses

        from repro.core.instance import InstanceConfig

        assert [field.name for field in dataclasses.fields(InstanceConfig)] == [
            "pattern_sets", "profiles", "chain_map", "kernel",
        ]

    def test_refresh_preserves_every_engine_option(self):
        controller = make_controller()
        instance = controller.instances.provision("dpi-1", **REGEX)
        controller.handle_message(
            AddPatternsMessage(1, [Pattern(1, b"new-sig")])
        )
        controller.instances.refresh()
        assert len(instance.config.pattern_sets[1]) == 2
        assert engine_options_of(instance) == REGEX
        output = instance.inspect(b"a new-sig", chain_id=CHAIN)
        assert output.matches == {1: [(1, 9)]}

    def test_plan_groups_forwards_engine_options(self):
        controller = make_controller()
        controller.instances.plan_groups(max_groups=1, kernel="regex")
        config = controller.instances["dpi-group-1"].config
        assert config.kernel == "regex"

    def test_failover_replacement_gets_the_provision_kwargs(self):
        from repro.faults.recovery import FailoverCoordinator
        from repro.telemetry.scenario import build_figure5_system

        system = build_figure5_system(
            extra_hosts={"standby": "s3"}, **REGEX
        )
        coordinator = FailoverCoordinator(
            system.dpi_controller,
            system.tsa,
            system.topology,
            instance_hosts={"dpi3": "dpi3"},
            dpi_functions={"dpi3": system.dpi_function},
            spare_hosts=["standby"],
            provision_kwargs=REGEX,
        )
        system.instance.crash()
        record = coordinator.handle_instance_down("dpi3")
        assert record.mode == "provision"
        replacement = system.dpi_controller.instances[record.replacement]
        assert engine_options_of(replacement) == REGEX
        assert engine_options_of(system.instance) == REGEX


class TestTelemetrySnapshot:
    def test_typed_fields(self):
        controller = make_controller()
        instance = controller.instances.provision("dpi-1")
        instance.inspect(b"evil-sig here", chain_id=CHAIN, flow_key="f1")
        snapshot = controller.telemetry_snapshot()
        assert isinstance(snapshot, TelemetrySnapshot)
        assert snapshot.instances["dpi-1"]["packets_scanned"] == 1
        assert snapshot.alive == {"dpi-1": True}
        assert snapshot.faults == ()
        metrics = {m["name"] for m in snapshot.metrics["metrics"]}
        assert "dpi_bytes_scanned_total" in metrics

    def test_alive_tracks_crash(self):
        controller = make_controller()
        instance = controller.instances.provision("dpi-1")
        instance.crash()
        assert controller.telemetry_snapshot().alive == {"dpi-1": False}

    def test_active_flows_is_read_at_snapshot_time(self):
        """Regression: ``active_flows`` was a copy of ``len(flow_table)``
        stored per inspected packet, so drop / evict / migrate / restart
        left the snapshot reporting flows that were gone."""
        controller = make_controller()
        instance = controller.instances.provision("dpi-1")
        other = controller.instances.provision("dpi-2")

        def gauge(name):
            return controller.telemetry.registry.value(
                "dpi_active_flows", instance=name
            )

        def check(expected):
            snapshot = controller.telemetry_snapshot().instances
            for name, count in expected.items():
                table = controller.instances[name].scanner.flow_table
                assert snapshot[name]["active_flows"] == len(table) == count
                assert gauge(name) == count

        for index, flow in enumerate(("f1", "f2", "f3", "f4")):
            instance.inspect(
                b"evil-si", chain_id=CHAIN, flow_key=flow, now=float(index)
            )
        check({"dpi-1": 4, "dpi-2": 0})
        instance.drop_flow("f1")
        check({"dpi-1": 3, "dpi-2": 0})
        assert instance.scanner.flow_table.evict_idle(now=100.0, max_idle=98.5) == 1
        check({"dpi-1": 2, "dpi-2": 0})
        assert controller.migrate_flow("f3", "dpi-1", "dpi-2") is True
        check({"dpi-1": 1, "dpi-2": 1})
        instance.crash()
        instance.restart()
        check({"dpi-1": 0, "dpi-2": 1})
        assert other.export_flow("f3") is not None

    def test_record_fault_lands_in_snapshot_and_export(self):
        controller = make_controller()
        event = controller.telemetry.record_fault(
            "instance_crash", "dpi-1", phase="inject", detail="plan"
        )
        snapshot = controller.telemetry_snapshot()
        assert snapshot.faults == (event,)
        fault_lines = [
            line
            for line in iter_events(controller.telemetry)
            if line["type"] == "fault"
        ]
        assert fault_lines == [dict(event.as_dict(), type="fault")]
        counters = {
            (m.name, tuple(sorted(m.labels.items()))): m.value
            for m in controller.telemetry.registry.collect()
        }
        key = (
            "fault_events_total",
            (("kind", "instance_crash"), ("phase", "inject")),
        )
        assert counters[key] == 1


class TestMigrateFlowContract:
    def test_missing_endpoints_raise_keyerror(self):
        controller = make_controller()
        controller.instances.provision("dpi-1")
        with pytest.raises(KeyError, match="no instance named ghost"):
            controller.migrate_flow("f1", "ghost", "dpi-1")
        with pytest.raises(KeyError, match="no instance named ghost"):
            controller.migrate_flow("f1", "dpi-1", "ghost")

    def test_crashed_source_raises_unavailable(self):
        controller = make_controller()
        source = controller.instances.provision("dpi-1")
        controller.instances.provision("dpi-2")
        source.inspect(b"evil-sig", chain_id=CHAIN, flow_key="f1")
        source.crash()
        with pytest.raises(InstanceUnavailableError):
            controller.migrate_flow("f1", "dpi-1", "dpi-2")

    def test_migrating_onto_itself_raises_and_keeps_state(self):
        """Regression: source == target exported, imported, then dropped
        the state it had just written, so a signature split across the call
        was never found."""
        controller = make_controller()
        controller.add_patterns(1, [Pattern(1, b"signature!")])
        instance = controller.instances.provision("dpi-1")
        instance.inspect(b"xxxxsigna", chain_id=CHAIN, flow_key="f")
        with pytest.raises(ValueError, match="its own instance"):
            controller.migrate_flow("f", "dpi-1", "dpi-1")
        assert instance.export_flow("f") is not None
        output = instance.inspect(b"ture!yyy", chain_id=CHAIN, flow_key="f")
        assert [pid for pid, _ in output.matches[1]] == [1]

    def test_no_flow_state_returns_false(self):
        controller = make_controller()
        controller.instances.provision("dpi-1")
        controller.instances.provision("dpi-2")
        assert controller.migrate_flow("nope", "dpi-1", "dpi-2") is False

    def test_successful_migration_moves_state(self):
        controller = make_controller()
        source = controller.instances.provision("dpi-1")
        target = controller.instances.provision("dpi-2")
        source.inspect(b"evil-si", chain_id=CHAIN, flow_key="f1")
        assert controller.migrate_flow("f1", "dpi-1", "dpi-2") is True
        assert source.export_flow("f1") is None
        assert target.export_flow("f1") is not None
