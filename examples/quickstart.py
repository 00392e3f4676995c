#!/usr/bin/env python
"""Quickstart — DPI as a service in ~60 lines.

Two middleboxes (an IDS and an antivirus) outsource their pattern matching
to one DPI service instance.  Each packet is scanned **once** against the
merged pattern sets; every middlebox receives exactly the matches belonging
to its own patterns.

Run:  python examples/quickstart.py
"""

from repro.core import DPIController
from repro.core.messages import AddPatternsMessage, RegisterMiddleboxMessage
from repro.core.patterns import Pattern

# ----------------------------------------------------------------------
# 1. A DPI controller, and two middleboxes registering over JSON messages.
# ----------------------------------------------------------------------
controller = DPIController()

controller.handle_message(
    RegisterMiddleboxMessage(middlebox_id=1, name="ids", stateful=True).to_json()
)
controller.handle_message(
    RegisterMiddleboxMessage(middlebox_id=2, name="av", stateful=True).to_json()
)

# Each middlebox uploads its pattern set; note the shared pattern
# "malicious-payload" — the controller stores it once.
controller.handle_message(
    AddPatternsMessage(
        middlebox_id=1,
        patterns=[
            Pattern(pattern_id=0, data=b"GET /cgi-bin/exploit"),
            Pattern(pattern_id=1, data=b"malicious-payload"),
        ],
    ).to_json()
)
controller.handle_message(
    AddPatternsMessage(
        middlebox_id=2,
        patterns=[
            Pattern(pattern_id=0, data=b"VIRUS-SIGNATURE-ABC"),
            Pattern(pattern_id=1, data=b"malicious-payload"),
        ],
    ).to_json()
)
print(f"global pattern registry holds {len(controller.registry)} distinct patterns")

# ----------------------------------------------------------------------
# 2. A policy chain and a DPI service instance.
# ----------------------------------------------------------------------
from repro.net.steering import PolicyChain  # noqa: E402

controller.policy_chains_changed(
    {"web": PolicyChain("web", ("ids", "av"), chain_id=100)}
)
instance = controller.instances.provision("dpi-1")
print(
    f"instance automaton: {instance.automaton.num_states} states, "
    f"{instance.automaton.num_accepting} accepting"
)

# ----------------------------------------------------------------------
# 3. Scan packets once; read per-middlebox results.
# ----------------------------------------------------------------------
packets = [
    b"GET /index.html HTTP/1.1",                     # clean
    b"GET /cgi-bin/exploit?x=1 malicious-payload",   # IDS + both
    b"attachment: VIRUS-SIGNATURE-ABC",              # AV only
]
for index, payload in enumerate(packets):
    # One flow per packet here; pass the same flow_key for successive
    # packets of one flow to get cross-packet (stateful) matching.
    output = instance.inspect(payload, chain_id=100, flow_key=f"flow-{index}")
    print(f"\npayload: {payload!r}")
    if not output.has_matches:
        print("  no matches — forwarded untouched")
        continue
    for middlebox_id, matches in output.matches.items():
        name = "ids" if middlebox_id == 1 else "av"
        for pattern_id, position in matches:
            print(f"  {name}: pattern {pattern_id} ended at offset {position}")
    print(f"  match report: {output.report.size_bytes()} bytes on the wire")

print(f"\ntelemetry: {instance.telemetry_snapshot()}")
