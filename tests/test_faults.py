"""Tests for the fault-injection and recovery subsystem (repro.faults).

Covers the plan format, the impairable control channel, the injector, the
heartbeat/failover recovery machinery and its edge cases, plus the net-
layer fault plumbing it relies on (event cancellation, link admin state,
TSA re-steering).
"""

import pytest

from repro.faults import (
    ControlChannel,
    FailoverCoordinator,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    HeartbeatConfig,
    HeartbeatMonitor,
    RetryPolicy,
)
from repro.net.simulator import Simulator
from repro.telemetry.scenario import build_figure5_system


def plan_of(*specs, seed=0):
    return FaultPlan.of(list(specs), seed=seed)


class TestFaultPlan:
    def test_round_trips_through_json(self, tmp_path):
        plan = plan_of(
            FaultSpec(0.5, FaultKind.INSTANCE_CRASH, "dpi3"),
            FaultSpec(
                0.2, FaultKind.CONTROL_DROP, "control",
                duration=0.1, value=0.5,
            ),
            seed=42,
        )
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.load(path) == plan

    def test_specs_sorted_by_time(self):
        plan = plan_of(
            FaultSpec(0.9, FaultKind.LINK_UP, "a|b"),
            FaultSpec(0.1, FaultKind.LINK_DOWN, "a|b"),
        )
        assert [spec.at for spec in plan] == [0.1, 0.9]

    def test_targeting_filters(self):
        plan = plan_of(
            FaultSpec(0.1, FaultKind.INSTANCE_CRASH, "a"),
            FaultSpec(0.2, FaultKind.INSTANCE_CRASH, "b"),
        )
        assert [spec.target for spec in plan.targeting("a")] == ["a"]

    def test_rejects_malformed_documents(self):
        with pytest.raises(ValueError):
            FaultPlan.from_json("not json")
        with pytest.raises(ValueError):
            FaultPlan.from_json('{"no_faults": []}')
        with pytest.raises(ValueError):
            FaultPlan.from_json('{"faults": [{"at": 1}]}')
        with pytest.raises(ValueError):
            FaultPlan.from_json(
                '{"faults": [{"at": 1, "kind": "nope", "target": "x"}]}'
            )

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            FaultSpec(-1.0, FaultKind.INSTANCE_CRASH, "x")
        with pytest.raises(ValueError):
            FaultSpec(1.0, FaultKind.CONTROL_DROP, "x", duration=-0.5)


class TestSimulatorCancel:
    def test_cancelled_event_does_not_run(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("cancelled"))
        sim.schedule(2.0, lambda: fired.append("kept"))
        sim.cancel(event)
        sim.run()
        assert fired == ["kept"]

    def test_cancel_is_idempotent_and_preserves_order(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("a"))
        sim.cancel(event)
        sim.cancel(event)
        sim.schedule(1.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["b", "c"]


class TestLinkAdminState:
    def _topology(self):
        from repro.net.topology import Topology

        topo = Topology()
        topo.add_switch("s1")
        topo.add_host("h1")
        topo.add_host("h2")
        topo.add_link("s1", "h1")
        topo.add_link("s1", "h2")
        return topo

    def test_link_between_finds_the_link(self):
        topo = self._topology()
        link = topo.link_between("s1", "h1")
        assert link is topo.link_between("h1", "s1")
        with pytest.raises(KeyError):
            topo.link_between("h1", "h2")

    def test_downed_link_refuses_new_sends(self):
        topo = self._topology()
        link = topo.link_between("s1", "h1")
        link.set_admin(False)
        packet = _packet()
        assert topo.hosts["h1"].send(packet) is False
        topo.run()
        assert topo.switches["s1"].stats.packets_received == 0

    def test_in_flight_packets_still_arrive(self):
        topo = self._topology()
        topo.hosts["h1"].send(_packet(dst_index=2))
        # Down the first-hop link after the packet is already on the wire.
        topo.link_between("s1", "h1").set_admin(False)
        topo.run()
        assert topo.switches["s1"].stats.packets_received == 1

    def test_link_recovers_after_admin_up(self):
        topo = self._topology()
        link = topo.link_between("s1", "h1")
        link.set_admin(False)
        assert topo.hosts["h1"].send(_packet()) is False
        link.set_admin(True)
        assert topo.hosts["h1"].send(_packet()) is True


def _packet(payload=b"x", src_index=1, dst_index=2):
    from repro.net.addresses import IPv4Address, MACAddress
    from repro.net.packet import make_tcp_packet

    return make_tcp_packet(
        MACAddress.from_index(src_index),
        MACAddress.from_index(dst_index),
        IPv4Address.from_index(src_index),
        IPv4Address.from_index(dst_index),
        1000, 80, payload=payload,
    )


class TestControlChannel:
    def test_successful_rpc_delivers_result(self):
        sim = Simulator()
        channel = ControlChannel(sim, latency=0.01, timeout=0.05)
        results = []
        channel.rpc("ping", lambda: "pong", on_success=results.append)
        sim.run()
        assert results == ["pong"]
        assert channel.rpcs_ok == 1
        # The reply cancelled the timeout: nothing retried or failed.
        assert channel.retries == 0 and channel.rpcs_failed == 0

    def test_instance_exception_retries_then_fails(self):
        sim = Simulator()
        channel = ControlChannel(
            sim,
            latency=0.01,
            timeout=0.05,
            retry_policy=RetryPolicy(base_delay=0.02, max_attempts=3),
        )
        failures = []

        def explode():
            raise RuntimeError("boom")

        channel.rpc("bad", explode, on_failure=failures.append)
        sim.run()
        assert len(failures) == 1
        assert isinstance(failures[0], RuntimeError)
        assert channel.retries == 2  # 3 attempts = 2 retries
        assert channel.rpcs_failed == 1

    def test_retry_backoff_is_exponential(self):
        sim = Simulator()
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_attempts=3)
        channel = ControlChannel(
            sim, latency=0.001, timeout=0.05, retry_policy=policy
        )
        attempt_times = []

        def failing():
            attempt_times.append(sim.now)
            raise RuntimeError("down")

        channel.rpc("hb", failing)
        sim.run()
        assert len(attempt_times) == 3
        gap1 = attempt_times[1] - attempt_times[0]
        gap2 = attempt_times[2] - attempt_times[1]
        assert gap2 == pytest.approx(2 * gap1, rel=0.01)

    def test_full_drop_window_times_out(self):
        sim = Simulator()
        channel = ControlChannel(
            sim,
            latency=0.01,
            timeout=0.05,
            retry_policy=RetryPolicy(base_delay=0.01, max_attempts=2),
            seed=1,
        )
        channel.impair(drop_probability=1.0)
        failures = []
        channel.rpc("hb", lambda: "pong", on_failure=failures.append)
        sim.run()
        assert len(failures) == 1
        assert isinstance(failures[0], TimeoutError)
        assert channel.messages_dropped >= 2

    def test_clear_impairments_restores_delivery(self):
        sim = Simulator()
        channel = ControlChannel(sim, latency=0.01, timeout=0.05, seed=1)
        channel.impair(drop_probability=1.0, extra_delay=0.5)
        channel.clear_impairments()
        results = []
        channel.rpc("ping", lambda: "pong", on_success=results.append)
        sim.run()
        assert results == ["pong"]

    def test_same_seed_same_drop_pattern(self):
        outcomes = []
        for _ in range(2):
            sim = Simulator()
            channel = ControlChannel(
                sim,
                latency=0.001,
                timeout=0.01,
                retry_policy=RetryPolicy(base_delay=0.01, max_attempts=1),
                seed=7,
            )
            channel.impair(drop_probability=0.5)
            oks = []
            for index in range(20):
                channel.rpc(f"r{index}", lambda: 1, on_success=oks.append)
            sim.run()
            outcomes.append((len(oks), channel.messages_dropped))
        assert outcomes[0] == outcomes[1]

    def test_impairment_validation(self):
        channel = ControlChannel(Simulator())
        with pytest.raises(ValueError):
            channel.impair(drop_probability=1.5)
        with pytest.raises(ValueError):
            channel.impair(extra_delay=-1.0)


class TestFaultInjector:
    def _system(self):
        system = build_figure5_system(extra_hosts={"standby": "s3"})
        return system

    def test_crash_and_restart_via_plan(self):
        system = self._system()
        injector = FaultInjector(
            system.topology.simulator,
            instances=system.dpi_controller.instances,
            telemetry=system.hub,
        )
        injector.arm(plan_of(
            FaultSpec(0.1, FaultKind.INSTANCE_CRASH, "dpi3"),
            FaultSpec(0.2, FaultKind.INSTANCE_RESTART, "dpi3"),
        ))
        system.topology.run(until=0.15)
        assert system.instance.alive is False
        system.topology.run()
        assert system.instance.alive is True
        kinds = [event.kind for event in system.hub.faults]
        assert kinds == ["instance_crash", "instance_restart"]

    def test_link_faults_resolve_endpoint_pairs(self):
        system = self._system()
        injector = FaultInjector(
            system.topology.simulator, topology=system.topology
        )
        injector.arm(plan_of(
            FaultSpec(0.1, FaultKind.LINK_DOWN, "s2|dpi3"),
            FaultSpec(0.2, FaultKind.LINK_UP, "s2|dpi3"),
        ))
        link = system.topology.link_between("s2", "dpi3")
        system.topology.run(until=0.15)
        assert link.admin_up is False
        system.topology.run()
        assert link.admin_up is True

    def test_control_window_clears_after_duration(self):
        sim = Simulator()
        channel = ControlChannel(sim)
        injector = FaultInjector(sim, control=channel)
        injector.arm(plan_of(
            FaultSpec(
                0.1, FaultKind.CONTROL_DROP, "control",
                duration=0.2, value=0.8,
            ),
        ))
        sim.run(until=0.15)
        assert channel.drop_probability == pytest.approx(0.8)
        sim.run()
        assert channel.drop_probability == 0.0

    def test_result_corrupt_window_toggles_function(self):
        system = self._system()
        injector = FaultInjector(
            system.topology.simulator,
            dpi_functions={"dpi3": system.dpi_function},
        )
        injector.arm(plan_of(
            FaultSpec(
                0.1, FaultKind.RESULT_CORRUPT, "dpi3", duration=0.1
            ),
        ))
        system.topology.run(until=0.15)
        assert system.dpi_function.corrupt_results is True
        system.topology.run()
        assert system.dpi_function.corrupt_results is False

    def test_unknown_targets_raise(self):
        system = self._system()
        injector = FaultInjector(
            system.topology.simulator,
            instances=system.dpi_controller.instances,
            topology=system.topology,
        )
        with pytest.raises(KeyError):
            injector.inject(FaultSpec(0.0, FaultKind.INSTANCE_CRASH, "ghost"))
        with pytest.raises(ValueError):
            injector.inject(FaultSpec(0.0, FaultKind.LINK_DOWN, "not-a-pair"))


def _recovery_rig(
    *,
    spare_hosts=(),
    heartbeat=None,
    control_kwargs=None,
):
    """The figure-5 system wired with heartbeat + failover, not yet run."""
    system = build_figure5_system(extra_hosts={"standby": "s3"})
    topo = system.topology
    control = ControlChannel(
        topo.simulator, latency=0.002, timeout=0.02,
        **(control_kwargs or {}),
    )
    coordinator = FailoverCoordinator(
        system.dpi_controller,
        system.tsa,
        topo,
        instance_hosts={"dpi3": "dpi3"},
        dpi_functions={"dpi3": system.dpi_function},
        middlebox_functions=system.middlebox_functions,
        spare_hosts=list(spare_hosts),
        telemetry=system.hub,
    )
    monitor = HeartbeatMonitor(
        topo.simulator,
        control,
        system.dpi_controller.instances,
        config=heartbeat or HeartbeatConfig(),
        telemetry=system.hub,
        on_instance_down=coordinator.handle_instance_down,
        on_instance_up=coordinator.handle_instance_up,
    )
    monitor.start()
    return system, control, coordinator, monitor


class TestHeartbeatEdgeCases:
    def test_crash_detected_within_timeout_plus_probe(self):
        system, _, coordinator, monitor = _recovery_rig(
            spare_hosts=["standby"]
        )
        sim = system.topology.simulator
        sim.schedule_at(0.2, system.instance.crash)
        sim.run(until=2.0)
        monitor.stop()
        sim.run()
        assert monitor.is_down("dpi3")
        record = coordinator.records["dpi3"]
        # Detection: one silence window plus one failed probe RPC cycle.
        config = monitor.config
        budget = config.timeout + config.interval + 4 * 0.02 + 0.1
        assert record.detected_at - 0.2 <= budget

    def test_link_flap_shorter_than_timeout_no_spurious_failover(self):
        # Control-plane impairment briefer than the heartbeat timeout:
        # probes fail for a moment but proof-of-life is recent, so the
        # monitor must not declare the instance down.
        system, control, coordinator, monitor = _recovery_rig(
            control_kwargs={"seed": 3},
        )
        sim = system.topology.simulator
        flap = monitor.config.timeout / 3
        sim.schedule_at(0.2, lambda: control.impair(drop_probability=1.0))
        sim.schedule_at(0.2 + flap, control.clear_impairments)
        sim.run(until=1.0)
        monitor.stop()
        sim.run()
        assert not monitor.is_down("dpi3")
        assert coordinator.records == {}

    def test_double_crash_during_backoff(self):
        # The replacement instance crashes while the first failover is
        # barely done: the coordinator must fail over again rather than
        # wedge on the half-recovered state.
        system, _, coordinator, monitor = _recovery_rig(
            spare_hosts=["standby"]
        )
        sim = system.topology.simulator
        sim.schedule_at(0.2, system.instance.crash)

        def crash_replacement():
            name = coordinator.records["dpi3"].replacement
            assert name is not None
            coordinator.controller.instances[name].crash()

        sim.schedule_at(0.6, crash_replacement)
        sim.run(until=3.0)
        monitor.stop()
        sim.run()
        replacement = coordinator.records["dpi3"].replacement
        assert monitor.is_down(replacement)
        second = coordinator.records[replacement]
        # No instance left anywhere: the second failover degrades.
        assert second.mode == "degrade"
        assert second.recovered_at is not None

    def test_crash_mid_migration_fails_cleanly(self):
        # A flow migration whose source dies mid-way must surface the
        # failure to the caller and leave the target untouched, while the
        # heartbeat still detects and recovers the dead instance.
        from repro.core.instance import InstanceUnavailableError

        system, _, coordinator, monitor = _recovery_rig(
            spare_hosts=["standby"]
        )
        controller = system.dpi_controller
        controller.instances.provision("dpi-extra")
        coordinator.instance_hosts["dpi-extra"] = "standby"
        sim = system.topology.simulator
        chain_id = sorted(system.instance.scanner.chain_map)[0]
        system.instance.inspect(b"some data", chain_id=chain_id, flow_key="f1")

        def migrate_during_crash():
            system.instance.crash()
            with pytest.raises(InstanceUnavailableError):
                controller.migrate_flow("f1", "dpi3", "dpi-extra")

        sim.schedule_at(0.2, migrate_during_crash)
        sim.run(until=2.0)
        monitor.stop()
        sim.run()
        assert controller.instances["dpi-extra"].export_flow("f1") is None
        assert monitor.is_down("dpi3")
        assert coordinator.records["dpi3"].recovered_at is not None

    def test_restart_reattaches_chains(self):
        system, _, coordinator, monitor = _recovery_rig(
            spare_hosts=["standby"]
        )
        sim = system.topology.simulator
        original_hops = {
            name: realized.hop_hosts
            for name, realized in system.tsa.realized.items()
        }
        sim.schedule_at(0.2, system.instance.crash)
        sim.schedule_at(1.0, system.instance.restart)
        sim.run(until=2.0)
        monitor.stop()
        sim.run()
        assert not monitor.is_down("dpi3")
        record = coordinator.records["dpi3"]
        assert record.reattached_at is not None
        for name, hops in original_hops.items():
            assert system.tsa.realized[name].hop_hosts == hops


class TestFailoverCoordinator:
    def test_prefers_surviving_shared_instance(self):
        system, _, coordinator, _ = _recovery_rig()
        controller = system.dpi_controller
        from repro.core.instance import DPIServiceFunction

        extra = controller.instances.provision("dpi-extra")
        function = DPIServiceFunction(extra)
        system.topology.hosts["standby"].set_function(function)
        coordinator.instance_hosts["dpi-extra"] = "standby"
        coordinator.dpi_functions["dpi-extra"] = function
        system.instance.crash()
        record = coordinator.handle_instance_down("dpi3")
        assert record.mode == "resteer"
        assert record.replacement == "dpi-extra"
        for chain_name in record.chains:
            assert (
                "standby" in system.tsa.realized[chain_name].hop_hosts
            )

    def test_never_selects_dedicated_instances(self):
        system, _, coordinator, _ = _recovery_rig()
        controller = system.dpi_controller
        from repro.core.instance import DPIServiceFunction

        dedicated = controller.instances.provision(
            "dpi-dedicated", dedicated=True
        )
        function = DPIServiceFunction(dedicated)
        system.topology.hosts["standby"].set_function(function)
        coordinator.instance_hosts["dpi-dedicated"] = "standby"
        coordinator.dpi_functions["dpi-dedicated"] = function
        system.instance.crash()
        record = coordinator.handle_instance_down("dpi3")
        # The only other instance is dedicated: recovery must degrade
        # rather than hijack (or decommission) the MCA² engine.
        assert record.mode == "degrade"
        assert "dpi-dedicated" in controller.instances
        assert controller.instances["dpi-dedicated"].alive

    def test_degrade_releases_buffered_packets(self):
        system, _, coordinator, _ = _recovery_rig()
        ids1 = system.middlebox_functions["ids1"]
        data = _packet(payload=b"held back")
        data.mark_matched()
        assert ids1.process(data) == []  # buffered awaiting its result
        system.instance.crash()
        record = coordinator.handle_instance_down("dpi3")
        assert record.mode == "degrade"
        assert ids1._pending_data == {}
        assert ids1.packets_rescanned >= 1

    def test_degrade_sends_released_packets_untagged(self, checked_length_memo):
        from repro.net.packet import VlanTag

        system, _, coordinator, _ = _recovery_rig()
        ids1 = system.middlebox_functions["ids1"]
        data = _packet(payload=b"held back")
        data.push_vlan(VlanTag(vid=100))
        data.hop_length()  # as the receiving host left it
        data.mark_matched()
        assert ids1.process(data) == []
        system.instance.crash()
        coordinator.handle_instance_down("dpi3")
        # Stripping the chain tag shortens the packet: the length the host
        # and link count must be the untagged one.
        assert data.vlan_stack == []
        assert data.hop_length() == data.wire_length

    def test_degraded_chain_drops_dpi_hop(self):
        system, _, coordinator, _ = _recovery_rig()
        system.instance.crash()
        coordinator.handle_instance_down("dpi3")
        for realized in system.tsa.realized.values():
            assert "dpi3" not in realized.hop_hosts
