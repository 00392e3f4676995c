"""Unit tests for the middlebox rule engine and the chain adapter."""

import pytest

from repro.core.reports import MatchReport
from repro.middleboxes.base import (
    Action,
    DPIServiceMiddlebox,
    MiddleboxChainFunction,
    Rule,
    RuleEngine,
    RuleHit,
)
from repro.net.addresses import IPv4Address, MACAddress
from repro.net.nsh import build_result_packet
from repro.net.packet import make_tcp_packet


def make_packet(payload=b"data"):
    return make_tcp_packet(
        MACAddress.from_index(0),
        MACAddress.from_index(1),
        IPv4Address("10.0.0.1"),
        IPv4Address("10.0.0.2"),
        1234,
        80,
        payload=payload,
    )


class TestRuleEngine:
    def test_single_condition_rule(self):
        engine = RuleEngine([Rule(1, (5,))])
        hits = engine.evaluate([(5, 10)])
        assert [h.rule_id for h in hits] == [1]
        assert hits[0].positions == (10,)

    def test_multi_condition_rule_requires_all(self):
        engine = RuleEngine([Rule(1, (5, 6))])
        assert engine.evaluate([(5, 10)]) == []
        hits = engine.evaluate([(5, 10), (6, 20)])
        assert len(hits) == 1
        assert set(hits[0].positions) == {10, 20}

    def test_rule_without_conditions_rejected(self):
        with pytest.raises(ValueError):
            Rule(1, ())

    def test_duplicate_rule_id_rejected(self):
        engine = RuleEngine([Rule(1, (5,))])
        with pytest.raises(ValueError):
            engine.add_rule(Rule(1, (6,)))

    def test_remove_rule(self):
        engine = RuleEngine([Rule(1, (5,))])
        engine.remove_rule(1)
        assert engine.evaluate([(5, 10)]) == []
        with pytest.raises(KeyError):
            engine.remove_rule(1)

    def test_hits_sorted_by_severity(self):
        engine = RuleEngine(
            [
                Rule(1, (5,), action=Action.ALERT),
                Rule(2, (5,), action=Action.DROP),
            ]
        )
        hits = engine.evaluate([(5, 10)])
        assert [h.rule_id for h in hits] == [2, 1]

    def test_three_hit_packet_orders_by_severity_then_rule_id(self):
        engine = RuleEngine(
            [
                Rule(1, (5,), action=Action.FORWARD),
                Rule(4, (6, 5), action=Action.ALERT),
                Rule(9, (6,), action=Action.DROP),
                Rule(2, (7,), action=Action.DROP),  # pattern 7 never matches
            ]
        )
        hits = engine.evaluate([(5, 10), (6, 20), (5, 30)], packet_id=77)
        assert hits == [
            RuleHit(rule_id=9, packet_id=77, positions=(20,)),
            RuleHit(rule_id=4, packet_id=77, positions=(20, 10, 30)),
            RuleHit(rule_id=1, packet_id=77, positions=(10, 30)),
        ]
        # Equal severity falls back to rule id, whatever the insertion order.
        ties = RuleEngine([Rule(8, (5,)), Rule(3, (5,)), Rule(6, (5,))])
        assert [h.rule_id for h in ties.evaluate([(5, 1)])] == [3, 6, 8]
        assert engine.evaluate([], packet_id=77) == []

    def test_verdict_severity(self):
        engine = RuleEngine(
            [
                Rule(1, (5,), action=Action.ALERT),
                Rule(2, (6,), action=Action.DROP),
            ]
        )
        assert engine.verdict(engine.evaluate([(5, 1)])) is Action.ALERT
        assert engine.verdict(engine.evaluate([(6, 1)])) is Action.DROP
        assert engine.verdict([]) is Action.FORWARD

    def test_rules_for_pattern(self):
        engine = RuleEngine([Rule(1, (5, 6)), Rule(2, (6,))])
        assert engine.rules_for_pattern(6) == {1, 2}
        assert engine.rules_for_pattern(9) == set()


class TestDPIServiceMiddlebox:
    def test_registration_messages(self):
        middlebox = DPIServiceMiddlebox(middlebox_id=7, name="custom")
        middlebox.add_literal_rule(0, b"sig-data")
        registration = middlebox.registration_message()
        assert registration.middlebox_id == 7
        assert registration.name == "custom"
        patterns = middlebox.patterns_message()
        assert [p.data for p in patterns.patterns] == [b"sig-data"]

    def test_consume_report_counts(self):
        middlebox = DPIServiceMiddlebox(middlebox_id=7)
        middlebox.add_literal_rule(0, b"evil")
        report = MatchReport.from_matches({7: [(0, 4)]})
        verdict = middlebox.consume_report(make_packet(), report)
        assert verdict is Action.ALERT
        assert middlebox.stats.rules_fired == 1
        assert middlebox.stats.reports_consumed == 1

    def test_report_for_other_middlebox_ignored(self):
        middlebox = DPIServiceMiddlebox(middlebox_id=7)
        middlebox.add_literal_rule(0, b"evil")
        report = MatchReport.from_matches({8: [(0, 4)]})
        assert middlebox.consume_report(make_packet(), report) is Action.FORWARD


class TestChainFunction:
    def _middlebox(self, action=Action.ALERT):
        middlebox = DPIServiceMiddlebox(middlebox_id=7)
        middlebox.add_literal_rule(0, b"evil", action=action)
        return middlebox

    def test_unmarked_packet_processed_immediately(self):
        function = MiddleboxChainFunction(self._middlebox())
        packet = make_packet()
        assert function.process(packet) == [packet]
        assert function.middlebox.stats.packets_processed == 1

    def test_marked_packet_buffered_until_result(self):
        function = MiddleboxChainFunction(self._middlebox())
        packet = make_packet(b"evil here")
        packet.mark_matched()
        assert function.process(packet) == []
        report = MatchReport.from_matches({7: [(0, 4)]})
        result = build_result_packet(packet, report)
        out = function.process(result)
        assert out == [packet, result]
        assert function.middlebox.stats.alerts == 1

    def test_result_before_data(self):
        function = MiddleboxChainFunction(self._middlebox())
        packet = make_packet(b"evil here")
        packet.mark_matched()
        report = MatchReport.from_matches({7: [(0, 4)]})
        result = build_result_packet(packet, report)
        assert function.process(result) == []
        out = function.process(packet)
        assert out == [packet, result]

    def test_drop_consumes_both_packets(self):
        function = MiddleboxChainFunction(self._middlebox(action=Action.DROP))
        packet = make_packet(b"evil")
        packet.mark_matched()
        function.process(packet)
        report = MatchReport.from_matches({7: [(0, 4)]})
        result = build_result_packet(packet, report)
        assert function.process(result) == []

    def test_max_buffered_tracked(self):
        function = MiddleboxChainFunction(self._middlebox())
        for _ in range(3):
            packet = make_packet(b"evil")
            packet.mark_matched()
            function.process(packet)
        assert function.max_buffered == 3
