"""End-to-end chaos tests: the ISSUE's acceptance criteria.

A seeded fault plan kills the busiest instance mid-run; every affected
chain must be re-steered (or degraded) within the failover budget, no
packet sent after recovery may be silently lost, and two runs of the same
plan must be bit-identical.
"""

import json

import pytest

from repro.faults import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    HeartbeatConfig,
    run_chaos_scenario,
)

# Every wire length read on these paths is checked against a fresh one.
pytestmark = pytest.mark.usefixtures("checked_length_memo")

CRASH_RESTART_PLAN = FaultPlan.of(
    [
        FaultSpec(0.2, FaultKind.INSTANCE_CRASH, "dpi3"),
        FaultSpec(0.45, FaultKind.INSTANCE_RESTART, "dpi3"),
    ],
    seed=11,
)

CRASH_ONLY_PLAN = FaultPlan.of(
    [FaultSpec(0.2, FaultKind.INSTANCE_CRASH, "dpi3")], seed=5
)


class TestKillBusiestInstance:
    def test_kills_the_busiest_instance_mid_run(self):
        result = run_chaos_scenario(CRASH_ONLY_PLAN, packets=60)
        # dpi3 carries every chain: it is the busiest instance by
        # construction, and the plan kills it mid-workload.
        assert not result.dpi_controller.instances["dpi3"].alive
        crash = next(
            event
            for event in result.hub.faults
            if event.kind == "instance_crash"
        )
        assert 0 < crash.time < result.send_times[result.sent_ids[-1]]

    def test_affected_chains_resteered_within_budget(self):
        result = run_chaos_scenario(CRASH_ONLY_PLAN, packets=60)
        record = result.coordinator.records["dpi3"]
        assert set(record.chains) == {"chain1", "chain2"}
        assert record.mode == "provision"
        for chain_name in record.chains:
            hops = result.tsa.realized[chain_name].hop_hosts
            assert "dpi3" not in hops
            assert "dpi-standby" in hops
        assert not result.budget_exceeded
        # Crash-to-recovery wall time is also bounded by the budget.
        crash_at = CRASH_ONLY_PLAN.specs[0].at
        assert (
            record.recovered_at - crash_at
            <= result.failover_budget
        )

    def test_no_packet_lost_after_recovery(self):
        result = run_chaos_scenario(CRASH_ONLY_PLAN, packets=60)
        assert result.lost_after_recovery == ()
        assert result.unrecovered_instances == ()
        assert result.ok

    def test_outage_window_loss_is_bounded_and_attributed(self):
        result = run_chaos_scenario(CRASH_ONLY_PLAN, packets=60)
        # Every lost packet was sent inside [crash, recovery] — nothing
        # before the fault or after the failover went missing.
        crash_at = CRASH_ONLY_PLAN.specs[0].at
        for pid in result.lost_ids:
            assert (
                crash_at
                <= result.send_times[pid]
                <= result.recovery_complete_at
            )


class TestDeterminism:
    def test_same_plan_same_seed_bit_identical(self):
        first = run_chaos_scenario(CRASH_RESTART_PLAN, packets=60)
        second = run_chaos_scenario(CRASH_RESTART_PLAN, packets=60)
        assert first.digest == second.digest
        assert json.dumps(
            [event.as_dict() for event in first.hub.faults]
        ) == json.dumps([event.as_dict() for event in second.hub.faults])

    def test_different_seed_different_workload(self):
        other = FaultPlan.of(list(CRASH_RESTART_PLAN.specs), seed=12)
        first = run_chaos_scenario(CRASH_RESTART_PLAN, packets=60)
        second = run_chaos_scenario(other, packets=60)
        assert first.digest != second.digest


class TestRecoveryModes:
    def test_restart_reattaches_and_stops_loss(self):
        result = run_chaos_scenario(CRASH_RESTART_PLAN, packets=60)
        record = result.coordinator.records["dpi3"]
        assert record.reattached_at is not None
        for chain_name in record.chains:
            assert (
                result.tsa.realized[chain_name].hop_hosts
                == record.original_hops[chain_name]
            )
        assert result.ok

    def test_degradation_without_spare_keeps_traffic_flowing(self):
        result = run_chaos_scenario(
            CRASH_ONLY_PLAN, packets=60, allow_spare=False
        )
        record = result.coordinator.records["dpi3"]
        assert record.mode == "degrade"
        assert set(record.degraded_hosts) == {"ids1", "ids2", "av1"}
        assert result.ok
        # The legacy twins actually scanned the post-outage traffic.
        rescanned = sum(
            function.packets_rescanned
            for function in result.coordinator.middlebox_functions.values()
        )
        assert rescanned > 0

    def test_link_flap_losses_end_with_link_up(self):
        plan = FaultPlan.of(
            [
                FaultSpec(0.2, FaultKind.LINK_DOWN, "s2|dpi3"),
                FaultSpec(0.3, FaultKind.LINK_UP, "s2|dpi3"),
            ],
            seed=3,
        )
        result = run_chaos_scenario(plan, packets=40)
        assert result.ok
        for pid in result.lost_ids:
            assert 0.2 <= result.send_times[pid] <= 0.3

    def test_result_corruption_fails_open(self):
        plan = FaultPlan.of(
            [
                FaultSpec(
                    0.005, FaultKind.RESULT_CORRUPT, "dpi3", duration=5.0
                )
            ],
            seed=3,
        )
        result = run_chaos_scenario(plan, packets=40)
        assert result.ok
        assert result.lost_ids == ()
        function = result.coordinator.dpi_functions["dpi3"]
        assert function.results_corrupted > 0
        corrupt_seen = sum(
            chain_function.corrupt_reports
            for chain_function in (
                result.coordinator.middlebox_functions.values()
            )
        )
        assert corrupt_seen > 0

    def test_short_control_drop_no_spurious_failover(self):
        plan = FaultPlan.of(
            [
                FaultSpec(
                    0.2, FaultKind.CONTROL_DROP, "control",
                    duration=0.08, value=0.9,
                )
            ],
            seed=3,
        )
        result = run_chaos_scenario(plan, packets=40)
        assert result.ok
        assert result.coordinator.records == {}
        assert not result.monitor.is_down("dpi3")
        assert result.control.messages_dropped > 0


class TestChaosCli:
    def test_cli_passes_on_the_example_plan(self, capsys):
        from repro.cli import main

        code = main(
            ["chaos", "figure5", "--plan", "examples/plan_basic.json"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "result: OK" in out
        assert "digest:" in out

    def test_cli_json_format(self, capsys):
        from repro.cli import main

        code = main(
            [
                "chaos", "figure5",
                "--plan", "examples/plan_basic.json",
                "--format", "json",
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["ok"] is True
        assert summary["lost_after_recovery"] == 0

    def test_cli_rejects_missing_plan(self, capsys):
        from repro.cli import main

        code = main(["chaos", "figure5", "--plan", "/no/such/plan.json"])
        assert code == 2
        assert "cannot load plan" in capsys.readouterr().err

    def test_cli_fails_on_unrecovered_flows(self, tmp_path, capsys):
        # An unrecoverable plan: the DPI host's link goes down and never
        # comes back.  The heartbeat cannot see it (the control path is
        # out of band), losses run to the end of the workload, and the
        # run must exit nonzero.
        plan = FaultPlan.of(
            [FaultSpec(0.2, FaultKind.LINK_DOWN, "s2|dpi3")], seed=5
        )
        path = tmp_path / "plan.json"
        plan.save(path)
        from repro.cli import main

        code = main(["chaos", "figure5", "--plan", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "result: FAILED" in out


class TestScenarioValidation:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_chaos_scenario(CRASH_ONLY_PLAN, scenario="figure6")


ENGINE = {"kernel": "regex"}


def engine_options_of(instance):
    return {name: getattr(instance.config, name) for name in ENGINE}


class TestEngineOptionsUnderChaos:
    """Engine options ride through crash, restart and failover."""

    def test_restarted_instance_keeps_engine_options(self):
        result = run_chaos_scenario(CRASH_RESTART_PLAN, packets=40, **ENGINE)
        assert result.ok
        instance = result.dpi_controller.instances["dpi3"]
        assert instance.restarts == 1
        assert engine_options_of(instance) == ENGINE
        assert instance.automaton.kernel_name == "regex"

    def test_failover_replacement_inherits_engine_options(self):
        result = run_chaos_scenario(CRASH_ONLY_PLAN, packets=40, **ENGINE)
        failover = result.dpi_controller.instances["dpi3-failover"]
        assert engine_options_of(failover) == ENGINE

    def test_regex_cached_digest_matches_repeat_run(self):
        first = run_chaos_scenario(CRASH_RESTART_PLAN, packets=40, **ENGINE)
        second = run_chaos_scenario(CRASH_RESTART_PLAN, packets=40, **ENGINE)
        assert first.digest == second.digest
