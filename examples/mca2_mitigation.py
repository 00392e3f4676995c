#!/usr/bin/env python
"""MCA^2-style attack mitigation (paper Section 4.3.1, Figure 6).

A DPI service instance is calibrated on benign traffic; an attacker then
sends *heavy* packets (match floods) that inflate the engine's work per
byte.  The autoscaler's stress policy — the DPI controller's one control
loop acting as the central MCA^2 coordinator — detects it from the
instance's byte and match counters, allocates a dedicated instance and
migrates the heavy flows to it.

Run:  python examples/mca2_mitigation.py
"""

from repro.autoscale import Autoscaler, StressPolicy
from repro.core import DPIController
from repro.core.messages import AddPatternsMessage, RegisterMiddleboxMessage
from repro.core.patterns import Pattern
from repro.net.steering import PolicyChain
from repro.workloads.attacks import match_flood_payload
from repro.workloads.patterns import generate_snort_like
from repro.workloads.traffic import TrafficGenerator

CHAIN = 100

# ----------------------------------------------------------------------
# 1. One IDS middlebox with a Snort-like pattern set.
# ----------------------------------------------------------------------
patterns = generate_snort_like(count=400, seed=3)
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
controller.instances.provision("dpi-1")
stress = StressPolicy(threshold_factor=1.5)
autoscaler = Autoscaler(
    controller,
    rate_bytes_per_second=1e6,
    epoch_seconds=1.0,
    slo_seconds=0.05,
    policies=[stress],
)


def inspect(payload, flow_key):
    """Steer a packet to its flow's pinned instance, else the shared one."""
    name = autoscaler.pins.get(flow_key, "dpi-1")
    controller.instances[name].inspect(payload, chain_id=CHAIN, flow_key=flow_key)


# ----------------------------------------------------------------------
# 2. Calibrate on benign traffic: the first tick sets the baseline.
# ----------------------------------------------------------------------
generator = TrafficGenerator(seed=9)
for index in range(60):
    inspect(generator.benign_payload(900), f"user-{index % 10}")
autoscaler.tick(epoch=0)
print(f"calibrated baseline: {stress.baselines['dpi-1']:.2f} work units/byte")

# ----------------------------------------------------------------------
# 3. The attack: three flows sending match floods while benign users keep
#    sending.  The next tick sees the work per byte jump and migrates.
# ----------------------------------------------------------------------
attack_payload = match_flood_payload(patterns, 4000, seed=1)
for round_index in range(20):
    inspect(attack_payload, f"attacker-{round_index % 3}")
    inspect(generator.benign_payload(900), "user-0")
events = autoscaler.tick(epoch=1)
if not events:
    raise SystemExit("attack not detected")
(event,) = events
assert event.action == "migrate", event
print(f"\nSTRESS: {event.reason}")
dedicated = controller.instances[event.instance]
print(f"dedicated instance: {event.instance} (kernel={dedicated.config.kernel})")
print("migrated heavy flows:")
for flow_key, target in autoscaler.pins.items():
    print(f"  {flow_key} -> {target}")
assert sorted(autoscaler.pins) == ["attacker-0", "attacker-1", "attacker-2"]

# ----------------------------------------------------------------------
# 4. Attack traffic now lands on the dedicated instance; the primary
#    instance serves benign users again.
# ----------------------------------------------------------------------
for _ in range(5):
    inspect(attack_payload, "attacker-0")
    inspect(generator.benign_payload(900), "user-1")
assert autoscaler.tick(epoch=2) == []

telemetry = controller.telemetry_snapshot().instances
print("\nper-instance telemetry after mitigation:")
for name, snapshot in telemetry.items():
    print(f"  {name}: {snapshot['packets_scanned']} packets, "
          f"{snapshot['bytes_scanned']} bytes, "
          f"{snapshot['total_matches']} matches")
