"""Failure-injection tests: lost/duplicated/reordered packets and malformed
control traffic must not wedge the system."""

import pytest

from repro.core.controller import DPIController
from repro.core.messages import (
    AddPatternsMessage,
    ControlMessage,
    RegisterMiddleboxMessage,
    RemovePatternsMessage,
)
from repro.core.patterns import Pattern
from repro.core.reports import MatchReport
from repro.middleboxes.base import Action, DPIServiceMiddlebox, MiddleboxChainFunction
from repro.net.addresses import IPv4Address, MACAddress
from repro.net.nsh import build_result_packet
from repro.net.packet import make_tcp_packet

# Every wire length read on these paths is checked against a fresh one.
pytestmark = pytest.mark.usefixtures("checked_length_memo")


def make_packet(payload=b"data", src_port=1000):
    return make_tcp_packet(
        MACAddress.from_index(0),
        MACAddress.from_index(1),
        IPv4Address("10.0.0.1"),
        IPv4Address("10.0.0.2"),
        src_port,
        80,
        payload=payload,
    )


def make_middlebox():
    middlebox = DPIServiceMiddlebox(middlebox_id=7)
    middlebox.add_literal_rule(0, b"evil", action=Action.ALERT)
    return middlebox


class TestLostResultPackets:
    def test_buffer_cap_fails_open(self):
        """Data packets whose result packets were lost are eventually
        released with no matches instead of buffering forever."""
        function = MiddleboxChainFunction(make_middlebox(), max_pending=5)
        released_total = []
        for index in range(20):
            packet = make_packet(b"evil payload", src_port=2000 + index)
            packet.mark_matched()
            released_total.extend(function.process(packet))
        assert len(function._pending_data) <= 5
        assert function.forced_releases == 15
        assert len(released_total) == 15
        # Forced releases carry no report, so no alert fired for them.
        assert function.middlebox.stats.alerts == 0

    def test_orphan_reports_capped(self):
        function = MiddleboxChainFunction(make_middlebox(), max_pending=3)
        for index in range(10):
            data = make_packet(b"evil", src_port=3000 + index)
            data.mark_matched()
            report = MatchReport.from_matches({7: [(0, 4)]})
            function.process(build_result_packet(data, report))
        assert len(function._pending_reports) <= 3
        assert function.dropped_orphan_reports == 7

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            MiddleboxChainFunction(make_middlebox(), max_pending=0)

    def test_late_result_after_forced_release_is_discarded_cleanly(self):
        function = MiddleboxChainFunction(make_middlebox(), max_pending=1)
        first = make_packet(b"evil one", src_port=4000)
        first.mark_matched()
        function.process(first)
        second = make_packet(b"evil two", src_port=4001)
        second.mark_matched()
        function.process(second)  # forces `first` out, matchless
        # The late report for `first` now has no data packet; it waits in
        # the orphan buffer and is eventually capped — no crash, no leak.
        report = MatchReport.from_matches({7: [(0, 4)]})
        out = function.process(build_result_packet(first, report))
        assert out == []
        assert first.packet_id in function._pending_reports


class TestDuplicateDelivery:
    def test_duplicate_result_packet_is_harmless(self):
        function = MiddleboxChainFunction(make_middlebox())
        data = make_packet(b"evil here", src_port=5000)
        data.mark_matched()
        function.process(data)
        report = MatchReport.from_matches({7: [(0, 4)]})
        result = build_result_packet(data, report)
        first_out = function.process(result)
        assert data in first_out
        # The duplicate finds no pending data; it is buffered as an orphan
        # (and later capped), never double-processed.
        alerts_before = function.middlebox.stats.alerts
        function.process(result.copy())
        assert function.middlebox.stats.alerts == alerts_before


class TestMalformedControlTraffic:
    def test_garbage_json_rejected_without_state_change(self):
        controller = DPIController()
        with pytest.raises(ValueError):
            controller.handle_message("{not json")
        with pytest.raises(ValueError):
            ControlMessage.from_json('{"no": "type"}')
        assert controller.middlebox_ids == []

    def test_failed_pattern_add_leaves_no_partial_state(self):
        controller = DPIController()
        controller.handle_message(RegisterMiddleboxMessage(1, "ids"))
        controller.handle_message(
            AddPatternsMessage(1, [Pattern(0, b"keeper-sig")])
        )
        # Second batch contains a duplicate id: the message fails...
        ack = controller.handle_message(
            AddPatternsMessage(1, [Pattern(0, b"duplicate-id")])
        )
        assert not ack.ok
        # ...and the original pattern is intact.
        assert controller.pattern_set_of(1).get(0).data == b"keeper-sig"
        assert len(controller.registry) == 1

    def test_remove_unknown_pattern_acks_failure(self):
        controller = DPIController()
        controller.handle_message(RegisterMiddleboxMessage(1, "ids"))
        ack = controller.handle_message(RemovePatternsMessage(1, [99]))
        assert not ack.ok

    def test_malformed_report_payload_fails_open(self):
        """A corrupt result packet must not wedge or crash the chain: the
        data packet is processed matchless and forwarded, the report is
        discarded, and the match mark is cleared so downstream middleboxes
        do not buffer for a report that no longer exists."""
        middlebox = make_middlebox()
        bogus = make_packet(b"\xde\xad\xbe\xef")
        bogus.describes_packet_id = 1
        function = MiddleboxChainFunction(middlebox)
        data = make_packet(b"evil")
        data.mark_matched()
        bogus.describes_packet_id = data.packet_id
        function.process(data)
        forwarded = function.process(bogus)
        assert forwarded == [data]
        assert not data.is_marked_matched
        assert function.corrupt_reports == 1
        assert function._pending_data == {}
