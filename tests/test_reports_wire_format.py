"""The report wire format is frozen, and malformed input fails open.

``tests/corpus/report_vectors.json`` holds seeded ``{middlebox: [(pattern
id, position)]}`` inputs with the bytes ``encode()`` gave them at the commit
before the one-record rewrite (PR 19), plus what that commit's ``decode``
read back from those bytes.  To capture the fixture again from another
checkout::

    PYTHONPATH=<checkout>/src python tests/test_reports_wire_format.py
"""

import json
import random
from pathlib import Path

import pytest

from repro.core.reports import MAX_PATTERN_ID, MAX_POSITION, MatchReport
from repro.middleboxes.base import (
    Action,
    DPIServiceMiddlebox,
    MiddleboxChainFunction,
)
from repro.net.addresses import IPv4Address, MACAddress
from repro.net.nsh import build_result_packet
from repro.net.packet import make_tcp_packet

FIXTURE = Path(__file__).parent / "corpus" / "report_vectors.json"
VECTOR_SEED = 20
EDGE_POSITIONS = (0, 1, 0xFFFF, 0x10000, MAX_POSITION)
RUN_LENGTHS = (2, 255, 256, 600)


def _match_list(rng: random.Random, long_run: bool) -> list:
    """One middlebox's ``(pattern id, position)`` list: singles, edge
    positions, repeats, runs, in no particular order."""
    shape = rng.randrange(6)
    if shape == 0:
        return []
    if shape == 1:
        return [(rng.randrange(MAX_PATTERN_ID + 1), rng.choice(EDGE_POSITIONS))]
    pairs = [
        (rng.randrange(64), rng.randrange(2048)) for _ in range(rng.randrange(1, 7))
    ]
    pairs += [(rng.choice((0, 7, MAX_PATTERN_ID)), rng.choice(EDGE_POSITIONS))]
    if shape >= 3:
        pattern_id = rng.randrange(64)
        length = rng.choice(RUN_LENGTHS) if long_run else rng.choice((2, 3, 5))
        start = rng.choice((0, 0xFFFF - 1, 0x10000, rng.randrange(4096)))
        pairs += [(pattern_id, start + step) for step in range(length)]
    if shape == 4:
        pairs.append(rng.choice(pairs))  # the same match twice
    rng.shuffle(pairs)
    return pairs


def vector_inputs(count: int = 240) -> list:
    """The seeded inputs of the golden vectors, the same on every run."""
    rng = random.Random(VECTOR_SEED)
    inputs = []
    for index in range(count):
        middleboxes = rng.sample(
            [0, 1, 2, 3, 7, 50, 300, 0xFFFF], rng.randrange(0, 5)
        )
        inputs.append(
            {m: _match_list(rng, long_run=index % 30 == 0) for m in middleboxes}
        )
    return inputs


def _capture() -> list:
    vectors = []
    for matches in vector_inputs():
        report = MatchReport.from_matches(matches)
        wire = report.encode()
        decoded = MatchReport.decode(wire)
        vectors.append(
            {
                "matches": {str(m): pairs for m, pairs in matches.items()},
                "wire": wire.hex(),
                "decoded": {str(m): decoded.matches_for(m) for m in matches},
                "total_records": decoded.total_records(),
                "size_bytes": decoded.size_bytes(),
            }
        )
    return vectors


def _load() -> list:
    return json.loads(FIXTURE.read_text())


def _pairs(rows) -> list:
    return [tuple(row) for row in rows]


class TestGoldenVectors:
    def test_fixture_covers_the_seeded_inputs(self):
        vectors = _load()
        assert len(vectors) >= 200
        inputs = vector_inputs()
        assert len(inputs) == len(vectors)
        for matches, vector in zip(inputs, vectors):
            assert {str(m): [list(p) for p in pairs] for m, pairs in matches.items()} == (
                vector["matches"]
            )
        lengths = {
            len(pairs) for matches in inputs for pairs in matches.values()
        }
        assert 0 in lengths and 1 in lengths and max(lengths) >= 600

    def test_encoder_reproduces_the_parent_bytes(self):
        for matches, vector in zip(vector_inputs(), _load()):
            report = MatchReport.from_matches(matches)
            wire = report.encode()
            assert wire.hex() == vector["wire"]
            assert report.size_bytes() == vector["size_bytes"] == len(wire)
            assert report.total_records() == vector["total_records"]

    def test_decoder_reads_what_the_parent_read(self):
        for matches, vector in zip(vector_inputs(), _load()):
            decoded = MatchReport.decode(bytes.fromhex(vector["wire"]))
            for middlebox_id in matches:
                assert decoded.matches_for(middlebox_id) == _pairs(
                    vector["decoded"][str(middlebox_id)]
                )
            assert decoded.matches_for(0xBEEF) == []
            assert decoded.total_records() == vector["total_records"]
            assert decoded.size_bytes() == vector["size_bytes"]
            assert decoded.is_empty == (vector["total_records"] == 0)
            # The decoded view re-encodes to the bytes it was read from.
            assert decoded.encode().hex() == vector["wire"]


# --- malformed input ---------------------------------------------------------

MINE, OTHER = 7, 9
VALID = MatchReport.from_matches(
    {MINE: [(0, 4), (3, 10), (3, 11)], OTHER: [(5, 70_000)]}
).encode()
#: Offsets of the run-length byte of one record in each block of ``VALID``:
#: header 4 + block header 4 + 5, and past two records and a block header.
_RUN_MINE = 4 + 4 + 5
_RUN_OTHER = 4 + 4 + 12 + 4 + 5


def _with_byte(data: bytes, offset: int, value: int) -> bytes:
    return data[:offset] + bytes([value]) + data[offset + 1 :]


MALFORMED = (
    [(f"cut at {cut}", VALID[:cut]) for cut in range(len(VALID))]
    + [
        ("wrong version", _with_byte(VALID, 0, 2)),
        ("trailing byte", VALID + b"\x00"),
        ("zero run length in my block", _with_byte(VALID, _RUN_MINE, 0)),
        ("zero run length in the other block", _with_byte(VALID, _RUN_OTHER, 0)),
        ("one block more than present", _with_byte(VALID, 3, 3)),
    ]
)


@pytest.mark.parametrize("payload", [p for _, p in MALFORMED], ids=[n for n, _ in MALFORMED])
class TestMalformedPayloads:
    def test_decode_raises_value_error(self, payload):
        with pytest.raises(ValueError):
            MatchReport.decode(payload)

    def test_chain_function_fails_open(self, payload):
        middlebox = DPIServiceMiddlebox(MINE, name="ids")
        middlebox.add_literal_rule(0, b"evil", Action.DROP)
        function = MiddleboxChainFunction(middlebox)
        data = make_tcp_packet(
            MACAddress.from_index(0),
            MACAddress.from_index(1),
            IPv4Address.from_index(0),
            IPv4Address.from_index(1),
            1234,
            80,
            payload=b"an evil payload",
        )
        result = build_result_packet(data, MatchReport.decode(VALID))
        result.payload = payload
        data.mark_matched()
        assert function.process(data) == []  # buffered, waiting for its report
        out = function.process(result)
        assert function.corrupt_reports == 1
        assert out == [data] and out[0] is data  # forwarded once, report dropped
        assert not data.is_marked_matched
        assert middlebox.stats.reports_consumed == 0
        assert middlebox.stats.packets_processed == 1
        assert middlebox.stats.packets_dropped == 0


def test_valid_payload_is_not_in_the_table():
    """The table's base report decodes and would have dropped the packet —
    so every row above really is the corruption, not the report."""
    decoded = MatchReport.decode(VALID)
    assert decoded.matches_for(MINE) == [(0, 4), (3, 10), (3, 11)]
    assert decoded.matches_for(OTHER) == [(5, 70_000)]


@pytest.mark.parametrize(
    "matches",
    [
        {1: [(MAX_PATTERN_ID + 1, 0)]},
        {1: [(-1, 0)]},
        {1: [(0, MAX_POSITION + 1)]},
        {1: [(0, -1)]},
        {1: [(0, 5), (MAX_PATTERN_ID + 1, 6)]},
        {1: [(0, 5), (2, MAX_POSITION + 1)]},
        # a run whose last position is past the field
        {1: [(0, MAX_POSITION), (0, MAX_POSITION + 1)]},
    ],
)
def test_out_of_range_match_is_rejected_at_construction(matches):
    with pytest.raises(ValueError):
        MatchReport.from_matches(matches)


def test_out_of_range_middlebox_id_is_rejected_at_encoding():
    with pytest.raises(ValueError):
        MatchReport.from_matches({0x10000: [(0, 1)]}).encode()


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(_capture(), separators=(",", ":")) + "\n")
    print(f"wrote {len(_load())} vectors to {FIXTURE}")
