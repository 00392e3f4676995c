"""Unit tests for match-report encoding (Section 6.5)."""

import pytest

from repro.core.reports import (
    BLOCK_HEADER_LENGTH,
    HEADER_LENGTH,
    MAX_POSITION,
    MAX_RUN_LENGTH,
    RECORD_LENGTH,
    MatchReport,
    compress_matches,
)


class TestRecords:
    """One record shape: ``(pattern id, position, run length)``."""

    def test_single_record_positions(self):
        report = MatchReport({1: [(5, 100, 1)]})
        assert report.matches_for(1) == [(5, 100)]

    def test_range_record_positions(self):
        report = MatchReport({1: [(5, 100, 3)]})
        assert report.matches_for(1) == [(5, 100), (5, 101), (5, 102)]

    def test_zero_run_length_rejected_on_decode(self):
        encoded = bytearray(MatchReport({1: [(5, 100, 1)]}).encode())
        encoded[-1] = 0
        with pytest.raises(ValueError, match="run length"):
            MatchReport.decode(bytes(encoded))

    def test_field_limits(self):
        with pytest.raises(ValueError):
            compress_matches([(0x10000, 0)])
        with pytest.raises(ValueError):
            compress_matches([(0, MAX_POSITION + 1)])
        with pytest.raises(ValueError):
            compress_matches([(0, 5), (0x10000, 0)])
        with pytest.raises(ValueError):
            compress_matches([(0, 5), (0, MAX_POSITION + 1)])
        assert compress_matches([(0xFFFF, MAX_POSITION)]) == [
            (0xFFFF, MAX_POSITION, 1)
        ]
        longest = max(run for _, _, run in compress_matches([(0, p) for p in range(600)]))
        assert longest == MAX_RUN_LENGTH


class TestCompression:
    def test_no_runs(self):
        records = compress_matches([(1, 10), (2, 20)])
        assert records == [(1, 10, 1), (2, 20, 1)]

    def test_consecutive_run_compressed(self):
        # The paper's repeated-character case: same pattern at consecutive
        # positions becomes one range record.
        records = compress_matches([(7, 5), (7, 6), (7, 7)])
        assert records == [(7, 5, 3)]

    def test_gap_breaks_run(self):
        records = compress_matches([(7, 5), (7, 7)])
        assert records == [(7, 5, 1), (7, 7, 1)]

    def test_different_patterns_not_merged(self):
        records = compress_matches([(7, 5), (8, 6)])
        assert records == [(7, 5, 1), (8, 6, 1)]

    def test_long_run_chunked(self):
        matches = [(1, position) for position in range(300)]
        records = compress_matches(matches)
        assert records == [(1, 0, 255), (1, 255, 45)]

    def test_unsorted_input_handled(self):
        records = compress_matches([(7, 7), (7, 5), (7, 6)])
        assert records == [(7, 5, 3)]


class TestReportRoundTrip:
    def test_empty_report(self):
        report = MatchReport.from_matches({})
        assert report.is_empty
        assert MatchReport.decode(report.encode()).is_empty

    def test_empty_lists_omitted(self):
        report = MatchReport.from_matches({1: [], 2: [(0, 5)]})
        assert 1 not in report.blocks
        assert 2 in report.blocks

    def test_round_trip(self):
        matches = {
            1: [(0, 12), (4, 100)],
            3: [(2, 50), (2, 51), (2, 52)],
        }
        report = MatchReport.from_matches(matches)
        decoded = MatchReport.decode(report.encode())
        assert decoded.matches_for(1) == sorted(matches[1])
        assert decoded.matches_for(3) == sorted(matches[3])

    def test_size_accounting(self):
        report = MatchReport.from_matches({1: [(0, 12)], 2: [(1, 3), (2, 9)]})
        expected = HEADER_LENGTH + 2 * BLOCK_HEADER_LENGTH + 3 * RECORD_LENGTH
        assert report.size_bytes() == expected
        assert len(report.encode()) == expected

    def test_six_bytes_per_record(self):
        """The paper's experiments use 6 bytes per match report record."""
        assert RECORD_LENGTH == 6

    def test_single_match_report_size(self):
        report = MatchReport.from_matches({1: [(0, 12)]})
        assert report.size_bytes() == HEADER_LENGTH + BLOCK_HEADER_LENGTH + 6

    def test_large_positions(self):
        # Stateful flow offsets can exceed 64 KiB; u24 handles them.
        report = MatchReport.from_matches({1: [(0, 1_000_000)]})
        decoded = MatchReport.decode(report.encode())
        assert decoded.matches_for(1) == [(0, 1_000_000)]

    def test_decode_rejects_garbage(self):
        with pytest.raises(ValueError):
            MatchReport.decode(b"\x01")
        with pytest.raises(ValueError):
            MatchReport.decode(b"\x99\x00\x00\x00")

    def test_decode_rejects_trailing_bytes(self):
        encoded = MatchReport.from_matches({1: [(0, 1)]}).encode()
        with pytest.raises(ValueError, match="trailing"):
            MatchReport.decode(encoded + b"\x00")

    def test_total_records(self):
        report = MatchReport.from_matches({1: [(0, 1), (0, 2), (0, 3), (5, 9)]})
        assert report.total_records() == 2  # one range + one single
        assert MatchReport.decode(report.encode()).total_records() == 2

    def test_decoded_blocks_materialise_on_demand(self):
        matches = {1: [(0, 12)], 3: [(2, 50), (2, 51), (2, 52)]}
        report = MatchReport.from_matches(matches)
        decoded = MatchReport.decode(report.encode())
        assert decoded.blocks == report.blocks == {1: [(0, 12, 1)], 3: [(2, 50, 3)]}
        assert decoded.records_for(3) == [(2, 50, 3)]
        assert decoded.records_for(2) == []


class TestCompactEncoding:
    def test_compact_is_four_bytes_per_match(self):
        report = MatchReport.from_matches({1: [(0, 12)]})
        compact = report.encode_compact()
        assert len(compact) == HEADER_LENGTH + BLOCK_HEADER_LENGTH + 4

    def test_compact_expands_ranges(self):
        report = MatchReport.from_matches({1: [(0, 5), (0, 6), (0, 7)]})
        compact = report.encode_compact()
        assert len(compact) == HEADER_LENGTH + BLOCK_HEADER_LENGTH + 3 * 4

    def test_compact_position_limit(self):
        report = MatchReport.from_matches({1: [(0, 70_000)]})
        with pytest.raises(ValueError):
            report.encode_compact()
