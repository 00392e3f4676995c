"""Unit and integration tests for MCA^2-style robustness (Section 4.3.1):
the autoscaler's stress policy and its migrate action."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.autoscale import Autoscaler, IsolationPolicy, StressPolicy
from repro.core.controller import DPIController
from repro.core.instance import DPIServiceInstance
from repro.core.messages import AddPatternsMessage, RegisterMiddleboxMessage
from repro.core.patterns import Pattern
from repro.net.steering import PolicyChain
from repro.telemetry.digest import deterministic_digest
from repro.workloads.attacks import (
    heavy_payload,
    match_flood_payload,
    near_miss_payload,
)
from repro.workloads.patterns import generate_snort_like
from repro.workloads.traffic import TrafficGenerator

CHAIN = 100
REPO = Path(__file__).resolve().parents[1]
#: ``scenario_digest`` of ``run_mca2_scenario``: it moves if a stress
#: verdict, a migration or anything the run records changes.
MCA2_SCENARIO_DIGEST = (
    "3bdf934e80fed011f9e8518baa08f91474cda9d1213b86bc4c7ca2207e8f71a4"
)


def build_controller(patterns, stateful=True):
    controller = DPIController()
    controller.handle_message(
        RegisterMiddleboxMessage(middlebox_id=1, name="ids", stateful=stateful)
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


SIGNATURE = b"signature!"


class Mca2System:
    """One shared instance under an autoscaler whose only policy is the
    stress policy.  Packets go to their flow's pinned instance, else to
    ``dpi-1``, as the load driver and the TSA steer them; a reference
    instance outside the controller scans every packet too."""

    def __init__(
        self, patterns, *, stateful=True, policies=None, chain_ids=None, **stress
    ):
        self.controller = build_controller(patterns, stateful=stateful)
        self.controller.instances.provision("dpi-1", chain_ids=chain_ids)
        self.reference = DPIServiceInstance(
            self.controller.instances.build_config(), name="reference"
        )
        self.stress = StressPolicy(**stress)
        self.autoscaler = Autoscaler(
            self.controller,
            rate_bytes_per_second=1e6,
            epoch_seconds=1.0,
            slo_seconds=0.05,
            policies=policies if policies is not None else [self.stress],
        )
        self.routed: dict = {}
        self.expected: dict = {}

    def send(self, payload, flow_key):
        name = self.autoscaler.pins.get(flow_key, "dpi-1")
        output = self.controller.instances[name].inspect(
            payload, chain_id=CHAIN, flow_key=flow_key
        )
        reference = self.reference.inspect(payload, chain_id=CHAIN, flow_key=flow_key)
        self.routed.setdefault(flow_key, []).append(output.matches)
        self.expected.setdefault(flow_key, []).append(reference.matches)
        return output

    def benign(self, packets, seed=9, flows=8):
        generator = TrafficGenerator(seed=seed)
        for index in range(packets):
            self.send(generator.benign_payload(800), f"user-{index % flows}")

    def pinned_by(self, event):
        return sorted(k for k, v in self.autoscaler.pins.items() if v == event.instance)


@pytest.fixture(scope="module")
def flood(snort_patterns):
    return match_flood_payload(snort_patterns, 2000)


def run_mca2_scenario():
    """§4.3.1 end to end: calibrate on benign traffic, flood three flows,
    migrate them mid-stream (one with a signature straddling the migration
    point), finish the attack on the dedicated instance."""
    patterns = generate_snort_like(count=150, seed=3)
    system = Mca2System(patterns + [SIGNATURE], threshold_factor=1.5)
    system.benign(40)
    calibration = system.autoscaler.tick(epoch=0)
    attack = match_flood_payload(patterns, 2000)
    for index in range(12):
        system.send(attack, f"attacker-{index % 3}")
    system.benign(8, seed=10)
    system.send(b"xxxxsigna", "attacker-0")
    migration = system.autoscaler.tick(epoch=1)
    straddle = system.send(b"ture!yyy", "attacker-0")
    for index in range(6):
        system.send(attack, f"attacker-{index % 3}")
    system.benign(8, seed=11)
    after = system.autoscaler.tick(epoch=2)
    return system, (calibration, migration, after), straddle


def scenario_digest(system):
    """The telemetry digest plus the autoscaler's events without ``time``."""
    events = [
        [event.epoch, event.action, event.instance, event.reason]
        for event in system.autoscaler.events
    ]
    material = [deterministic_digest(system.controller.telemetry), events]
    return hashlib.sha256(json.dumps(material).encode()).hexdigest()


def mca2_scenario_digest():
    system, _, _ = run_mca2_scenario()
    return scenario_digest(system)


class TestStressPolicy:
    def test_calibration_records_baseline(self, snort_patterns):
        system = Mca2System(snort_patterns)
        system.benign(30)
        assert system.autoscaler.tick(epoch=0) == []
        # Benign traffic carries no match: one work unit per scanned byte.
        assert system.stress.baselines == {"dpi-1": 1.0}

    def test_no_stress_under_benign_traffic(self, snort_patterns):
        system = Mca2System(snort_patterns, threshold_factor=1.5)
        system.benign(30)
        system.autoscaler.tick(epoch=0)
        system.benign(30, seed=10)
        assert system.autoscaler.tick(epoch=1) == []
        assert system.autoscaler.pins == {}

    def test_attack_detected_and_mitigated(self, snort_patterns, flood):
        system = Mca2System(snort_patterns, threshold_factor=1.5)
        system.benign(40)
        system.autoscaler.tick(epoch=0)
        for index in range(15):
            system.send(flood, f"attacker-{index % 3}")
        (event,) = system.autoscaler.tick(epoch=1)
        assert event.action == "migrate"
        assert event.reason.startswith("dpi-1 work ")
        manager = system.controller.instances
        assert manager.is_dedicated(event.instance)
        assert "-mca2-" in event.instance
        assert system.pinned_by(event) == ["attacker-0", "attacker-1", "attacker-2"]
        for flow_key in system.pinned_by(event):
            assert manager[event.instance].export_flow(flow_key) is not None
            assert manager["dpi-1"].export_flow(flow_key) is None
        registry = system.controller.telemetry.registry
        assert registry.value("autoscale_actions_total", action="migrate") == 1

    def test_consecutive_mitigations_divert_different_flows(
        self, snort_patterns, flood
    ):
        """A migrated flow leaves the source's heavy-flow ranking: the next
        stress window moves the next-heaviest flows, not the ones it has
        already given away."""
        system = Mca2System(snort_patterns, threshold_factor=1.5)
        system.benign(40)
        system.autoscaler.tick(epoch=0)
        for index in range(8):
            for _ in range(8 - index):
                system.send(flood, f"attacker-{index}")
        (first,) = system.autoscaler.tick(epoch=1)
        moved_first = system.pinned_by(first)
        assert moved_first == ["attacker-0", "attacker-1", "attacker-2"]
        for index in range(8):
            system.send(flood, f"attacker-{index}")
        (second,) = system.autoscaler.tick(epoch=2)
        assert second.instance == first.instance
        moved_second = sorted(set(system.pinned_by(second)) - set(moved_first))
        assert moved_second == ["attacker-3", "attacker-4", "attacker-5"]
        source = system.controller.instances["dpi-1"]
        remaining = {key for key, _ in source.heavy_flows(top=20)}
        assert {"attacker-6", "attacker-7"} <= remaining
        assert not remaining & set(moved_first + moved_second)

    def test_migrated_flows_are_pinned(self, snort_patterns, flood):
        system = Mca2System(snort_patterns, threshold_factor=1.5)
        system.benign(40)
        system.autoscaler.tick(epoch=0)
        for index in range(9):
            system.send(flood, f"attacker-{index % 3}")
        (event,) = system.autoscaler.tick(epoch=1)
        assert system.autoscaler.pins == {
            f"attacker-{index}": event.instance for index in range(3)
        }
        before = system.controller.instances[event.instance].telemetry.packets_scanned
        system.send(flood, "attacker-1")
        after = system.controller.instances[event.instance].telemetry.packets_scanned
        assert after == before + 1

    def test_dedicated_instance_reused(self, snort_patterns, flood):
        system = Mca2System(snort_patterns, threshold_factor=1.5)
        system.benign(40)
        system.autoscaler.tick(epoch=0)
        events = []
        for epoch in (1, 2):
            for index in range(6):
                system.send(flood, f"attacker-{epoch}-{index % 3}")
            events += system.autoscaler.tick(epoch=epoch)
        assert [event.action for event in events] == ["migrate", "migrate"]
        assert events[0].instance == events[1].instance
        assert system.controller.instances.dedicated_names() == [events[0].instance]

    def test_stateless_flows_are_pinned_and_forgotten(self, snort_patterns, flood):
        """A stateless chain's flows hold no scan state to move; migrating
        them pins them and drops their work from the source."""
        system = Mca2System(snort_patterns, stateful=False, threshold_factor=1.5)
        system.benign(40)
        system.autoscaler.tick(epoch=0)
        for index in range(9):
            system.send(flood, f"attacker-{index % 3}")
        (event,) = system.autoscaler.tick(epoch=1)
        assert system.pinned_by(event) == ["attacker-0", "attacker-1", "attacker-2"]
        source = system.controller.instances["dpi-1"]
        assert not {"attacker-0", "attacker-1", "attacker-2"} & set(
            source.telemetry.flow_work
        )

    def test_isolated_flow_is_not_migrated_again(self, snort_patterns, flood):
        """A flow the isolation policy already pinned keeps its pin; the
        stale work it left on the source is dropped, not migrated."""
        stress = StressPolicy(threshold_factor=1.5)
        system = Mca2System(
            snort_patterns, policies=[IsolationPolicy(), stress]
        )
        system.benign(40)
        system.autoscaler.tick(epoch=0)
        for index in range(12):
            system.send(flood, f"attacker-{index % 4}")
        (isolated,) = system.autoscaler.isolate_now(
            epoch=1, anomalous_flows=(("attacker-0", CHAIN),)
        )
        (event,) = system.autoscaler.tick(epoch=1)
        assert event.action == "migrate"
        assert system.autoscaler.pins["attacker-0"] == isolated.instance
        assert system.pinned_by(event) == ["attacker-1", "attacker-2"]
        source = system.controller.instances["dpi-1"]
        assert "attacker-0" not in source.telemetry.flow_work

    def test_migrate_never_lands_on_an_isolation_instance(
        self, snort_patterns, flood
    ):
        """A migrate reuses only an instance an earlier migrate provisioned:
        an isolation instance serving the same chain is dedicated too, but
        it is not a migrate target."""
        system = Mca2System(
            snort_patterns,
            policies=[IsolationPolicy(), StressPolicy(threshold_factor=1.5)],
            chain_ids=(CHAIN,),
        )
        manager = system.controller.instances
        system.benign(40)
        system.autoscaler.tick(epoch=0)
        for index in range(12):
            system.send(flood, f"attacker-{index % 4}")
        (isolated,) = system.autoscaler.isolate_now(
            epoch=1, anomalous_flows=(("attacker-0", CHAIN),)
        )
        assert manager.is_dedicated(isolated.instance)
        assert manager.chain_filter_of(isolated.instance) == (
            manager.chain_filter_of("dpi-1")
        )
        (first,) = system.autoscaler.tick(epoch=1)
        assert first.action == "migrate"
        assert first.instance != isolated.instance
        assert "-mca2-" in first.instance
        for index in range(6):
            system.send(flood, f"late-{index % 3}")
        (second,) = system.autoscaler.tick(epoch=2)
        assert second.action == "migrate"
        assert second.instance == first.instance
        assert manager.dedicated_names() == [isolated.instance, first.instance]

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="exceed 1.0"):
            StressPolicy(threshold_factor=1.0)


class TestMigrationLosesNoMatch:
    def test_scenario_matches_one_instance_that_saw_everything(self):
        system, (calibration, migration, after), straddle = run_mca2_scenario()
        assert calibration == [] and after == []
        (event,) = migration
        assert event.action == "migrate"
        assert "-mca2-" in event.instance
        assert system.pinned_by(event) == ["attacker-0", "attacker-1", "attacker-2"]
        # The signature straddles the migration point and is still found.
        signature_id = 150  # appended after the 150 Snort-like patterns
        assert signature_id in [pid for pid, _ in straddle.matches[1]]
        assert system.routed == system.expected
        attack_matches = sum(
            len(matches[1])
            for flow, packets in system.routed.items()
            if flow.startswith("attacker-")
            for matches in packets
        )
        assert attack_matches > 0


class TestScenarioDigest:
    def test_stable_in_process(self):
        assert mca2_scenario_digest() == mca2_scenario_digest()

    def test_golden(self):
        assert mca2_scenario_digest() == MCA2_SCENARIO_DIGEST

    @pytest.mark.parametrize("hash_seed", ["0", "1"])
    def test_independent_of_hash_seed(self, hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), str(REPO)])
        completed = subprocess.run(
            [
                sys.executable,
                "-c",
                "from tests.test_mca2 import mca2_scenario_digest as d; print(d())",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
            check=True,
        )
        assert completed.stdout.strip() == MCA2_SCENARIO_DIGEST
