"""Middlebox abstractions.

The paper's model (Section 4.1): middleboxes operate by *rules* — conditions
over packet content (pattern appearances) plus an action.  The DPI service
only reports pattern appearances; evaluating conditions and executing actions
stays inside the middlebox.

Two concrete bases are provided:

* :class:`DPIServiceMiddlebox` — registers its patterns with the DPI
  controller and evaluates rules from the match reports it receives;
* :class:`~repro.middleboxes.legacy.LegacyDPIMiddlebox` — the baseline that
  embeds its own Aho-Corasick engine and rescans every packet.

:class:`MiddleboxChainFunction` adapts a middlebox to a simulated host on a
policy chain, including the buffering the paper's prototype performs: a data
packet marked as "has matches" waits until its result packet arrives (and
vice versa) before the middlebox processes the pair.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.core.messages import AddPatternsMessage, RegisterMiddleboxMessage
from repro.core.patterns import Pattern, PatternKind
from repro.core.reports import MatchReport
from repro.net.host import NetworkFunction
from repro.net.packet import Packet


class Action(enum.Enum):
    """What a middlebox decides to do with a packet."""

    FORWARD = "forward"
    DROP = "drop"
    ALERT = "alert"  # forward, but log an alert


#: Sort rank of an action among a packet's rule hits: most severe first.
_SEVERITY = {Action.DROP: 0, Action.ALERT: 1, Action.FORWARD: 2}


@dataclass(frozen=True)
class Rule:
    """A middlebox rule: fire *action* when the conditions are met.

    ``pattern_ids`` are the ids (within this middlebox's pattern set) that
    must ALL appear in the packet for the rule to fire (the AND semantics
    Snort rules have across their content conditions).
    """

    rule_id: int
    pattern_ids: tuple
    action: Action = Action.ALERT
    description: str = ""

    def __post_init__(self) -> None:
        if not self.pattern_ids:
            raise ValueError(f"rule {self.rule_id} has no pattern conditions")


@dataclass
class RuleHit:
    """One firing of a rule on one packet."""

    rule_id: int
    packet_id: int
    positions: tuple


class RuleEngine:
    """Evaluates rules against the set of matched pattern ids of a packet."""

    def __init__(self, rules: list | None = None) -> None:
        self._rules: dict[int, Rule] = {}
        # pattern id -> rule ids referencing it
        self._by_pattern: dict[int, set] = {}
        # pattern id -> the one rule naming it, where that rule has no other
        # condition: a match of such a pattern is a hit of that rule.
        self._sole_rule: dict[int, int] = {}
        for rule in rules or []:
            self.add_rule(rule)

    def add_rule(self, rule: Rule) -> None:
        """Register a rule; raises on duplicate ids."""
        if rule.rule_id in self._rules:
            raise ValueError(f"duplicate rule id: {rule.rule_id}")
        self._rules[rule.rule_id] = rule
        for pattern_id in rule.pattern_ids:
            self._by_pattern.setdefault(pattern_id, set()).add(rule.rule_id)
            self._index_sole_rule(pattern_id)

    def remove_rule(self, rule_id: int) -> Rule:
        """Remove a rule by id; raises KeyError if absent."""
        rule = self._rules.pop(rule_id, None)
        if rule is None:
            raise KeyError(f"no rule with id {rule_id}")
        for pattern_id in rule.pattern_ids:
            self._by_pattern[pattern_id].discard(rule_id)
            self._index_sole_rule(pattern_id)
        return rule

    def _index_sole_rule(self, pattern_id: int) -> None:
        """Bring ``_sole_rule`` up to date for one pattern whose rule set
        just changed."""
        rule_ids = self._by_pattern[pattern_id]
        if len(rule_ids) == 1:
            (rule_id,) = rule_ids
            if len(self._rules[rule_id].pattern_ids) == 1:
                self._sole_rule[pattern_id] = rule_id
                return
        self._sole_rule.pop(pattern_id, None)

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self):
        return iter(sorted(self._rules.values(), key=lambda r: r.rule_id))

    def rules_for_pattern(self, pattern_id: int) -> set:
        """Ids of the rules referencing a pattern id."""
        return set(self._by_pattern.get(pattern_id, ()))

    def evaluate(self, matches: list, packet_id: int = 0) -> list:
        """Fire rules whose pattern conditions all matched.

        *matches* is a ``(pattern id, position)`` list; returns
        :class:`RuleHit` objects, most severe action first (DROP before
        ALERT before FORWARD).

        Only *candidate* rules — those referencing at least one matched
        pattern — are examined, mirroring how signature engines avoid
        touching their full rule set on every packet.  A matchless packet
        costs nothing here, and a packet whose matched patterns each have
        one single-condition rule (every ``add_literal_rule`` /
        ``add_regex_rule`` rule) costs one index read per match."""
        if not matches:
            return []
        sole_rule = self._sole_rule
        fired: dict[int, list] = {}
        for pattern_id, position in matches:
            rule_id = sole_rule.get(pattern_id)
            if rule_id is None:
                break  # a pattern with several rules or conditions
            fired.setdefault(rule_id, []).append(position)
        else:
            # Every match names its one rule, and that rule asks for nothing
            # else: the matches are the hits.
            hits = [
                RuleHit(rule_id, packet_id, tuple(positions))
                for rule_id, positions in fired.items()
            ]
            if len(hits) > 1:
                hits.sort(key=self._hit_order)
            return hits
        matched_ids: dict[int, list] = {}
        for pattern_id, position in matches:
            matched_ids.setdefault(pattern_id, []).append(position)
        candidate_ids: set[int] = set()
        for pattern_id in matched_ids:
            candidate_ids |= self._by_pattern.get(pattern_id, set())
        hits = []
        for rule_id in sorted(candidate_ids):
            rule = self._rules[rule_id]
            if all(pattern_id in matched_ids for pattern_id in rule.pattern_ids):
                positions = tuple(
                    itertools.chain.from_iterable(
                        matched_ids[pattern_id] for pattern_id in rule.pattern_ids
                    )
                )
                hits.append(
                    RuleHit(
                        rule_id=rule.rule_id, packet_id=packet_id, positions=positions
                    )
                )
        if len(hits) > 1:
            hits.sort(key=self._hit_order)
        return hits

    def _hit_order(self, hit: "RuleHit") -> tuple:
        return (_SEVERITY[self._rules[hit.rule_id].action], hit.rule_id)

    def action_of(self, rule_id: int) -> Action:
        """The action a rule carries."""
        return self._rules[rule_id].action

    def verdict(self, hits: list) -> Action:
        """The packet-level verdict: the most severe action among the hits."""
        verdict = Action.FORWARD
        for hit in hits:
            action = self._rules[hit.rule_id].action
            if action is Action.DROP:
                return Action.DROP
            if action is Action.ALERT:
                verdict = Action.ALERT
        return verdict


@dataclass
class MiddleboxStats:
    """Plain counters container."""
    packets_processed: int = 0
    packets_dropped: int = 0
    alerts: int = 0
    rules_fired: int = 0
    reports_consumed: int = 0


class Middlebox:
    """Common middlebox machinery: identity, rules, patterns, statistics."""

    #: Subclasses override these defaults as the paper's Table 1 dictates.
    TYPE_NAME = "middlebox"
    READ_ONLY = False
    STATEFUL = False
    STOPPING_CONDITION: int | None = None

    def __init__(
        self,
        middlebox_id: int,
        name: str | None = None,
        rules: list | None = None,
        patterns: list | None = None,
    ) -> None:
        self.middlebox_id = middlebox_id
        self.name = name if name is not None else self.TYPE_NAME
        self.engine = RuleEngine(rules)
        self.patterns: list[Pattern] = list(patterns or [])
        self.stats = MiddleboxStats()
        self.alert_log: list[RuleHit] = []

    # --- pattern/rule helpers ------------------------------------------------

    def add_literal_rule(
        self,
        rule_id: int,
        literal: bytes,
        action: Action = Action.ALERT,
        description: str = "",
    ) -> Rule:
        """Convenience: one literal pattern + one rule referencing it."""
        pattern = Pattern(pattern_id=rule_id, data=literal)
        self.patterns.append(pattern)
        rule = Rule(
            rule_id=rule_id,
            pattern_ids=(rule_id,),
            action=action,
            description=description,
        )
        self.engine.add_rule(rule)
        return rule

    def add_regex_rule(
        self,
        rule_id: int,
        regex: bytes,
        action: Action = Action.ALERT,
        description: str = "",
    ) -> Rule:
        """Convenience: one REGEX pattern + one rule referencing it."""
        pattern = Pattern(pattern_id=rule_id, data=regex, kind=PatternKind.REGEX)
        self.patterns.append(pattern)
        rule = Rule(
            rule_id=rule_id,
            pattern_ids=(rule_id,),
            action=action,
            description=description,
        )
        self.engine.add_rule(rule)
        return rule

    # --- processing --------------------------------------------------------------

    def process_matches(self, packet: Packet, matches: list) -> Action:
        """Evaluate rules for one packet given its pattern matches."""
        stats = self.stats
        stats.packets_processed += 1
        hits = self.engine.evaluate(matches, packet_id=packet.packet_id)
        verdict = Action.FORWARD
        if hits:
            stats.rules_fired += len(hits)
            verdict = self.engine.verdict(hits)
            if verdict is Action.DROP:
                stats.packets_dropped += 1
            else:
                stats.alerts += len(hits)
                self.alert_log.extend(hits)
        self.on_rule_hits(packet, hits)
        return verdict

    def on_rule_hits(self, packet: Packet, hits: list) -> None:
        """Hook for subclasses (quarantine, rate classes, backend choice...)."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} #{self.middlebox_id} {self.name!r}>"


class DPIServiceMiddlebox(Middlebox):
    """A middlebox that outsources DPI to the service (Figure 1(b)).

    It registers its pattern set with the DPI controller and, per packet,
    evaluates its rules on the matches reported by the service instead of
    scanning the payload.
    """

    def registration_message(self) -> RegisterMiddleboxMessage:
        """The JSON registration message for this middlebox."""
        return RegisterMiddleboxMessage(
            middlebox_id=self.middlebox_id,
            name=self.name,
            stateful=self.STATEFUL,
            read_only=self.READ_ONLY,
            stopping_condition=self.STOPPING_CONDITION,
        )

    def patterns_message(self) -> AddPatternsMessage:
        """The JSON message uploading this middlebox's patterns."""
        return AddPatternsMessage(
            middlebox_id=self.middlebox_id, patterns=list(self.patterns)
        )

    def register_with(self, controller) -> None:
        """Register and upload patterns over the JSON control channel."""
        ack = controller.handle_message(self.registration_message().to_json())
        if not ack.ok:
            raise RuntimeError(f"registration rejected: {ack.detail}")
        ack = controller.handle_message(self.patterns_message().to_json())
        if not ack.ok:
            raise RuntimeError(f"pattern upload rejected: {ack.detail}")

    def consume_report(self, packet: Packet, report: MatchReport) -> Action:
        """Process a packet given the DPI service's report for it."""
        self.stats.reports_consumed += 1
        matches = report.matches_for(self.middlebox_id)
        return self.process_matches(packet, matches)

    def consume_unmarked(self, packet: Packet) -> Action:
        """Process a packet the service marked matchless."""
        return self.process_matches(packet, [])

    def consume_results_only(self, result_packet: Packet) -> Action:
        """Read-only mode: evaluate rules from a result packet alone.

        The middlebox never sees the data packet (it is off the data path);
        the verdict is advisory — a read-only middlebox cannot act on the
        packet anyway, only raise alerts/telemetry.
        """
        if not self.READ_ONLY:
            raise TypeError(
                f"{self.name}: results-only mode requires a read-only "
                "middlebox (this one acts on packets)"
            )
        report = MatchReport.decode(result_packet.payload)
        matches = report.matches_for(self.middlebox_id)
        self.stats.reports_consumed += 1
        # Attribute hits to the described data packet, not the carrier.
        described = result_packet.copy()
        if result_packet.describes_packet_id is not None:
            described.packet_id = result_packet.describes_packet_id
        return self.process_matches(described, matches)


class NSHChainFunction(NetworkFunction):
    """Adapter for a middlebox consuming in-band NSH results (Section 4.2,
    option 1).

    Match results ride on the data packet itself as NSH metadata, so there
    is nothing to buffer and packet order cannot split a pair.  The *last*
    DPI-aware middlebox on the chain strips the metadata layer
    (``strip=True``) so legacy hops and the destination see the original
    packet.
    """

    def __init__(self, middlebox: DPIServiceMiddlebox, strip: bool = False) -> None:
        self.middlebox = middlebox
        self.strip = strip

    def process(self, packet: Packet) -> list[Packet]:
        """Handle one received packet; return the packets to send on."""
        if packet.nsh is not None and packet.nsh.metadata:
            report = MatchReport.decode(packet.nsh.metadata)
            verdict = self.middlebox.consume_report(packet, report)
        else:
            verdict = self.middlebox.consume_unmarked(packet)
        if verdict is Action.DROP:
            return []
        if self.strip and packet.nsh is not None:
            packet.nsh = None
            packet.length_memo = None
            packet.clear_match_mark()
        return [packet]


class MonitoringFunction(NetworkFunction):
    """Adapter for a read-only middlebox *off* the data path.

    In the read-only optimization (Section 4.2, option 3) the middlebox
    receives only result packets, sent directly to its host by the DPI
    service; anything else that reaches it (e.g. flooded frames) is
    forwarded untouched.
    """

    def __init__(self, middlebox: DPIServiceMiddlebox) -> None:
        if not middlebox.READ_ONLY:
            raise TypeError(
                f"{middlebox.name}: monitoring mode requires a read-only "
                "middlebox"
            )
        self.middlebox = middlebox
        self.results_consumed = 0

    def process(self, packet: Packet) -> list[Packet]:
        """Handle one received packet; return the packets to send on."""
        if packet.is_result_packet:
            self.results_consumed += 1
            self.middlebox.consume_results_only(packet)
            return []
        return [packet]


class MiddleboxChainFunction(NetworkFunction):
    """Adapter placing a :class:`DPIServiceMiddlebox` on a policy chain.

    Mirrors the paper's prototype middlebox application: data packets whose
    match mark (ECN) is set are buffered until the corresponding result
    packet arrives; unmarked packets are processed immediately with an empty
    match list.  Both the data packet (unless dropped) and the result packet
    are forwarded so that downstream middleboxes can reuse the results.
    """

    #: Default cap on buffered packets awaiting their counterpart.  A lost
    #: result packet must not wedge the buffer forever: beyond the cap the
    #: oldest pending data packet is processed with an empty match list
    #: (fail-open, like the paper's read-only-friendly default) and oldest
    #: orphan reports are discarded.
    DEFAULT_MAX_PENDING = 256

    def __init__(
        self,
        middlebox: DPIServiceMiddlebox,
        max_pending: int = DEFAULT_MAX_PENDING,
    ) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be positive: {max_pending}")
        self.middlebox = middlebox
        self.max_pending = max_pending
        self._pending_data: dict[int, Packet] = {}
        self._pending_reports: dict[int, Packet] = {}
        self.max_buffered = 0
        self.forced_releases = 0
        self.dropped_orphan_reports = 0
        # Graceful degradation (fault recovery): while ``degraded`` is set,
        # data packets are scanned by a private legacy engine instead of
        # waiting for service results.  The engine is compiled lazily on
        # first degradation and kept for later episodes.
        self.degraded = False
        self._fallback = None
        self.packets_rescanned = 0
        self.corrupt_reports = 0

    def degrade(self) -> list[Packet]:
        """Fall back to the legacy local DPI engine (service unreachable).

        Pending data packets whose result packet will never arrive are
        rescanned locally and returned so the caller can forward them —
        nothing buffered is silently lost.  Idempotent.
        """
        if self.degraded:
            return []
        if self._fallback is None:
            from repro.middleboxes.legacy import LegacyDPIMiddlebox

            self._fallback = LegacyDPIMiddlebox.from_middlebox(self.middlebox)
        self.degraded = True
        released: list[Packet] = []
        for data in list(self._pending_data.values()):
            if self._rescan(data) is not Action.DROP:
                released.append(data)
        self._pending_data.clear()
        self._pending_reports.clear()
        return released

    def restore(self) -> None:
        """Reattach to the DPI service after recovery.  Idempotent."""
        self.degraded = False

    def _rescan(self, packet: Packet) -> Action:
        """Scan one data packet with the legacy fallback engine."""
        from repro.net.flows import FiveTuple

        self.packets_rescanned += 1
        packet.clear_match_mark()
        return self._fallback.process_packet(
            packet, flow_key=FiveTuple.of(packet)
        )

    def process(self, packet: Packet) -> list[Packet]:
        """Handle one received packet; return the packets to send on."""
        if self.degraded:
            if packet.is_result_packet:
                # A straggler result from before the outage; the data packet
                # was already rescanned locally, so the report is stale.
                self.dropped_orphan_reports += 1
                return []
            verdict = self._rescan(packet)
            return [] if verdict is Action.DROP else [packet]
        described = packet.describes_packet_id
        if described is not None:  # a result packet
            data = self._pending_data.pop(described, None)
            if data is None:
                # Result arrived first: hold it for the data packet.
                self._pending_reports[described] = packet
                return self._after_buffering()
            return self._process_pair(data, packet)
        if not packet.ip.ecn:  # not marked: the service found nothing
            verdict = self.middlebox.consume_unmarked(packet)
            return [] if verdict is Action.DROP else [packet]
        report_packet = self._pending_reports.pop(packet.packet_id, None)
        if report_packet is None:
            self._pending_data[packet.packet_id] = packet
            return self._after_buffering()
        return self._process_pair(packet, report_packet)

    def _after_buffering(self) -> list[Packet]:
        """Note the buffer's new depth, then release/discard the oldest
        pending entries beyond the cap."""
        buffered = len(self._pending_data) + len(self._pending_reports)
        if buffered > self.max_buffered:
            self.max_buffered = buffered
        released: list[Packet] = []
        while len(self._pending_data) > self.max_pending:
            oldest_id = next(iter(self._pending_data))
            data = self._pending_data.pop(oldest_id)
            # Fail open: process with no matches rather than stall the flow.
            verdict = self.middlebox.consume_unmarked(data)
            self.forced_releases += 1
            if verdict is not Action.DROP:
                released.append(data)
        while len(self._pending_reports) > self.max_pending:
            oldest_id = next(iter(self._pending_reports))
            del self._pending_reports[oldest_id]
            self.dropped_orphan_reports += 1
        return released

    def _process_pair(self, data: Packet, report_packet: Packet) -> list[Packet]:
        try:
            report = MatchReport.decode(report_packet.payload)
        except ValueError:
            # Corrupted result packet: fail open on the data packet (treat
            # it as matchless) and drop the unusable report.  The match mark
            # is cleared so downstream middleboxes do not buffer for a
            # report that no longer exists.
            self.corrupt_reports += 1
            data.clear_match_mark()
            verdict = self.middlebox.consume_unmarked(data)
            return [] if verdict is Action.DROP else [data]
        verdict = self.middlebox.consume_report(data, report)
        if verdict is Action.DROP:
            # Drop the pair: forwarding the orphan result packet would leave
            # downstream middleboxes buffering for a data packet that will
            # never arrive.
            return []
        return [data, report_packet]
