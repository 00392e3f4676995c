"""The baseline: a middlebox with an *embedded* DPI engine.

This is what the paper compares against — every middlebox on the chain scans
the packet payload from scratch with its own Aho-Corasick automaton (plus
anchor-prefiltered regexes), exactly like the DPI service does, but
privately.  The throughput comparisons of Figures 9-10 pit pipelines of
these against virtual-DPI instances.
"""

from __future__ import annotations

from repro.core.combined import CombinedAutomaton
from repro.core.patterns import Pattern, PatternKind
from repro.core.regex import RegexPreFilter, split_matches
from repro.core.scanner import MiddleboxProfile, VirtualScanner
from repro.middleboxes.base import Action, Middlebox
from repro.net.flows import FiveTuple
from repro.net.host import NetworkFunction
from repro.net.packet import Packet

#: The private chain id a legacy middlebox uses for its own scanner.
_PRIVATE_CHAIN = 0


class LegacyDPIMiddlebox(Middlebox):
    """A middlebox that performs its own DPI on every packet."""

    TYPE_NAME = "legacy"

    def __init__(
        self,
        middlebox_id: int,
        name: str | None = None,
        rules: list | None = None,
        patterns: list | None = None,
    ) -> None:
        super().__init__(middlebox_id, name=name, rules=rules, patterns=patterns)
        self._scanner: VirtualScanner | None = None
        self._prefilter: RegexPreFilter | None = None
        self.bytes_scanned = 0

    @classmethod
    def from_middlebox(cls, middlebox: Middlebox) -> "LegacyDPIMiddlebox":
        """A legacy twin of *middlebox*: same identity, rules and patterns,
        but with a private scan engine, compiled and ready.

        This is the graceful-degradation path the paper argues for — "the
        middlebox may keep its legacy DPI module as a fallback": when the
        DPI service becomes unreachable, the chain adapter scans packets
        through this twin until the service reattaches.
        """
        twin = cls(
            middlebox.middlebox_id,
            name=middlebox.name,
            rules=list(middlebox.engine),
            patterns=list(middlebox.patterns),
        )
        twin.build_engine()
        return twin

    def build_engine(self) -> None:
        """Compile the private automaton from the current pattern list."""
        self._prefilter = RegexPreFilter()
        literals = []
        for pattern in self.patterns:
            if pattern.kind is PatternKind.LITERAL:
                literals.append(pattern)
            else:
                literals.extend(
                    self._prefilter.add_regex(self.middlebox_id, pattern)
                )
        automaton = CombinedAutomaton({self.middlebox_id: literals})
        profile = MiddleboxProfile(
            middlebox_id=self.middlebox_id,
            name=self.name,
            stateful=self.STATEFUL,
            read_only=self.READ_ONLY,
            stopping_condition=self.STOPPING_CONDITION,
        )
        self._scanner = VirtualScanner(
            automaton,
            profiles={self.middlebox_id: profile},
            chain_map={_PRIVATE_CHAIN: (self.middlebox_id,)},
        )

    @property
    def automaton(self) -> CombinedAutomaton:
        """The compiled private automaton."""
        if self._scanner is None:
            raise RuntimeError("call build_engine() first")
        return self._scanner.automaton

    def scan(self, payload: bytes, flow_key=None) -> list:
        """Scan one payload; returns ``(pattern id, position)`` matches."""
        if self._scanner is None:
            raise RuntimeError("call build_engine() first")
        self.bytes_scanned += len(payload)
        result = self._scanner.scan_packet(
            payload, _PRIVATE_CHAIN, flow_key=flow_key
        )
        raw = result.matches_for(self.middlebox_id)
        reportable, anchor_ids = split_matches(raw)
        if anchor_ids or self._prefilter.has_regexes(self.middlebox_id):
            reportable.extend(
                self._prefilter.confirm(self.middlebox_id, payload, anchor_ids)
            )
            reportable.extend(
                self._prefilter.scan_fallback(self.middlebox_id, payload)
            )
        return reportable

    def process_packet(self, packet: Packet, flow_key=None) -> Action:
        """Scan + rule evaluation: the paper's "DPI + counting" baseline."""
        matches = self.scan(packet.payload, flow_key=flow_key)
        return self.process_matches(packet, matches)


class LegacyChainFunction(NetworkFunction):
    """Adapter placing a legacy middlebox on a simulated policy chain."""

    def __init__(self, middlebox: LegacyDPIMiddlebox) -> None:
        self.middlebox = middlebox
        if middlebox._scanner is None:
            middlebox.build_engine()

    def process(self, packet: Packet) -> list[Packet]:
        """Scan the packet with the embedded engine and apply the verdict."""
        if packet.is_result_packet:
            return [packet]
        verdict = self.middlebox.process_packet(
            packet, flow_key=FiveTuple.of(packet)
        )
        return [] if verdict is Action.DROP else [packet]
