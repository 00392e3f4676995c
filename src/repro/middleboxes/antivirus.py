"""AntiVirus middlebox (ClamAV-like).

Virus signatures are long byte strings scanned across packet boundaries —
an AV is the paper's archetype of a *stateful* DPI consumer with a very
large pattern set.  On a signature hit the AV quarantines the whole flow:
subsequent packets of that flow are dropped without further inspection.
"""

from __future__ import annotations

from repro.middleboxes.base import Action, DPIServiceMiddlebox
from repro.net.flows import FiveTuple
from repro.net.packet import Packet


class AntiVirus(DPIServiceMiddlebox):
    """Flow-quarantining anti-virus."""

    TYPE_NAME = "av"
    READ_ONLY = False
    STATEFUL = True

    def __init__(self, middlebox_id: int, name: str | None = None, **kwargs) -> None:
        super().__init__(middlebox_id, name=name, **kwargs)
        self.quarantined_flows: set = set()
        self.detections: list[tuple] = []  # (flow key, rule id)

    def add_signature(
        self, rule_id: int, signature: bytes, description: str = ""
    ) -> None:
        """Add one detection signature."""
        if len(signature) < 8:
            raise ValueError(
                "virus signatures shorter than 8 bytes are too noisy; "
                f"got {len(signature)} bytes"
            )
        self.add_literal_rule(
            rule_id, signature, action=Action.DROP, description=description
        )

    def release(self, flow_key) -> bool:
        """Lift a quarantine (e.g. after operator review)."""
        if flow_key in self.quarantined_flows:
            self.quarantined_flows.remove(flow_key)
            return True
        return False

    def consume_report(self, packet: Packet, report) -> Action:
        """Drop quarantined flows outright; otherwise evaluate the report."""
        flow_key = FiveTuple.of(packet).bidirectional_key()
        if flow_key in self.quarantined_flows:
            self.stats.packets_processed += 1
            self.stats.packets_dropped += 1
            return Action.DROP
        return super().consume_report(packet, report)

    def consume_unmarked(self, packet: Packet) -> Action:
        """Drop quarantined flows outright; otherwise process matchless."""
        flow_key = FiveTuple.of(packet).bidirectional_key()
        if flow_key in self.quarantined_flows:
            self.stats.packets_processed += 1
            self.stats.packets_dropped += 1
            return Action.DROP
        return super().consume_unmarked(packet)

    def on_rule_hits(self, packet: Packet, hits: list) -> None:
        """Hook called once per processed packet with its rule hits."""
        for hit in hits:
            if self.engine.action_of(hit.rule_id) is Action.DROP:
                flow_key = FiveTuple.of(packet).bidirectional_key()
                self.quarantined_flows.add(flow_key)
                self.detections.append((flow_key, hit.rule_id))
