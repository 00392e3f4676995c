"""Match-report wire encoding (paper Section 6.5).

The experiments in the paper encode every match with a uniform 6-byte record
"to allow faster encoding and decoding of both regular and range reports":

* a **single match** — pattern id and end position;
* a **range of matches** — the repeated-character case where one pattern
  matches at a run of consecutive positions; the record carries the first
  end position and the run length.

Layout of the 6-byte record (big endian)::

    u16 pattern_id | u24 end_position | u8 run_length

``run_length == 1`` denotes a single match; longer runs cover matches at
``end_position, end_position + 1, ..., end_position + run_length - 1``.
Runs longer than 255 are split into several records.

A *report* aggregates the records of every middlebox interested in one
packet::

    u8 version | u8 flags | u16 block_count
    block: u16 middlebox_id | u16 record_count | record*

A compact 4-byte single-match record (``u16 pattern_id | u16 end_position``)
is provided for the encoding ablation; it cannot express ranges or positions
beyond 64 KiB.
"""

from __future__ import annotations

import struct

RECORD_LENGTH = 6
COMPACT_RECORD_LENGTH = 4
HEADER_LENGTH = 4
BLOCK_HEADER_LENGTH = 4
REPORT_VERSION = 1

MAX_PATTERN_ID = 0xFFFF
MAX_POSITION = 0xFFFFFF
MAX_RUN_LENGTH = 0xFF

_HEADER = struct.Struct(">BBH")
_BLOCK_HEADER = struct.Struct(">HH")
#: The u24 position and the u8 run length of a record travel as one
#: big-endian u32, ``position << 8 | run_length``.
_RECORD = struct.Struct(">HI")


def compress_matches(matches: list) -> list:
    """Turn a list of ``(pattern id, position)`` pairs into ``(pattern id,
    position, run length)`` records, folding runs of consecutive positions
    of the same pattern into one record.

    This is where records are made, so this is where their fields are
    checked: a pattern id or a position the record cannot carry raises
    ValueError."""
    if len(matches) == 1:
        ((pattern_id, position),) = matches
        if pattern_id >> 16 or position >> 24:
            raise ValueError(f"match out of range: {(pattern_id, position)}")
        return [(pattern_id, position, 1)]
    records: list = []
    ordered = sorted(matches)
    count = len(ordered)
    index = 0
    while index < count:
        pattern_id, position = ordered[index]
        run = 1
        while (
            index + run < count
            and run < MAX_RUN_LENGTH
            and ordered[index + run] == (pattern_id, position + run)
        ):
            run += 1
        if pattern_id >> 16 or position >> 24 or (position + run - 1) >> 24:
            raise ValueError(
                f"match out of range: {(pattern_id, position + run - 1)}"
            )
        records.append((pattern_id, position, run))
        index += run
    return records


class MatchReport:
    """All match records for one packet, grouped per middlebox.

    In memory a record is the paper's one uniform shape, the tuple
    ``(pattern id, position, run length)``.  A report built by
    :meth:`from_matches` holds its records; one read by :meth:`decode` holds
    the bytes it was read from and where each block lies in them, and
    expands a block only when it is asked for.
    """

    __slots__ = ("_blocks", "_data", "_spans")

    def __init__(self, blocks: "dict | None" = None) -> None:
        self._blocks = {} if blocks is None else blocks
        # Set by decode() instead of _blocks: the bytes read, and
        # {middlebox id: (offset, record count)} into them.
        self._data = self._spans = None

    @classmethod
    def from_matches(cls, per_middlebox_matches: dict) -> "MatchReport":
        """Build a report from ``{middlebox id: [(pattern id, position)]}``,
        compressing consecutive runs (empty lists are omitted)."""
        blocks = {}
        for middlebox_id, matches in sorted(per_middlebox_matches.items()):
            if matches:
                blocks[middlebox_id] = compress_matches(matches)
        return cls(blocks)

    @property
    def blocks(self) -> dict:
        """``{middlebox id: [(pattern id, position, run length)]}``."""
        if self._blocks is None:
            data = self._data
            self._blocks = {
                middlebox_id: [
                    (pattern_id, word >> 8, word & 0xFF)
                    for pattern_id, word in _RECORD.iter_unpack(
                        data[offset : offset + RECORD_LENGTH * count]
                    )
                ]
                for middlebox_id, (offset, count) in self._spans.items()
            }
        return self._blocks

    def _record_counts(self) -> list:
        if self._blocks is None:
            return [count for _, count in self._spans.values()]
        return [len(records) for records in self._blocks.values()]

    @property
    def is_empty(self) -> bool:
        """True when no middlebox has any match records."""
        return not (self._spans if self._blocks is None else self._blocks)

    def records_for(self, middlebox_id: int) -> list:
        """The records of one middlebox (a copy)."""
        return list(self.blocks.get(middlebox_id, ()))

    def matches_for(self, middlebox_id: int) -> list:
        """Expand one middlebox's records back to ``(pattern id, position)``
        pairs — for a decoded report, straight from its bytes."""
        pairs: list = []
        if self._blocks is not None:
            for pattern_id, position, run in self._blocks.get(middlebox_id, ()):
                pairs.extend((pattern_id, position + step) for step in range(run))
            return pairs
        span = self._spans.get(middlebox_id)
        if span is not None:
            offset, count = span
            for pattern_id, word in _RECORD.iter_unpack(
                self._data[offset : offset + RECORD_LENGTH * count]
            ):
                if word & 0xFF == 1:
                    pairs.append((pattern_id, word >> 8))
                else:
                    pairs.extend(
                        (pattern_id, (word >> 8) + step)
                        for step in range(word & 0xFF)
                    )
        return pairs

    def total_records(self) -> int:
        """Number of records across all blocks."""
        return sum(self._record_counts())

    def size_bytes(self) -> int:
        """Encoded size — the quantity Figure 11 plots."""
        counts = self._record_counts()
        return (
            HEADER_LENGTH
            + BLOCK_HEADER_LENGTH * len(counts)
            + RECORD_LENGTH * sum(counts)
        )

    # --- wire encoding -----------------------------------------------------

    def encode(self) -> bytes:
        """Serialize to the wire format."""
        blocks = self.blocks
        pieces = [_HEADER.pack(REPORT_VERSION, 0, len(blocks))]
        pack = _RECORD.pack
        for middlebox_id in sorted(blocks):
            records = blocks[middlebox_id]
            if not 0 <= middlebox_id <= 0xFFFF:
                raise ValueError(f"middlebox id out of range: {middlebox_id}")
            if len(records) > 0xFFFF:
                raise ValueError(f"too many records: {len(records)}")
            pieces.append(_BLOCK_HEADER.pack(middlebox_id, len(records)))
            for pattern_id, position, run in records:
                pieces.append(pack(pattern_id, position << 8 | run))
        return b"".join(pieces)

    @classmethod
    def decode(cls, data: bytes) -> "MatchReport":
        """Parse the wire format; raises ValueError on malformed input.

        The whole framing is checked here — header, version, every block
        header and record boundary, a zero run length in any block, trailing
        bytes — so nothing read from the report afterwards can fail; the
        records themselves stay in *data* until a block is asked for."""
        size = len(data)
        if size < HEADER_LENGTH:
            raise ValueError("truncated report header")
        version, _flags, block_count = _HEADER.unpack_from(data, 0)
        if version != REPORT_VERSION:
            raise ValueError(f"unsupported report version: {version}")
        offset = HEADER_LENGTH
        spans = {}
        for _ in range(block_count):
            if offset + BLOCK_HEADER_LENGTH > size:
                raise ValueError("truncated block header")
            middlebox_id, count = _BLOCK_HEADER.unpack_from(data, offset)
            offset += BLOCK_HEADER_LENGTH
            end = offset + RECORD_LENGTH * count
            if end > size:
                raise ValueError("truncated record")
            if 0 in data[offset + RECORD_LENGTH - 1 : end : RECORD_LENGTH]:
                raise ValueError("record with run length 0")
            spans[middlebox_id] = (offset, count)
            offset = end
        if offset != size:
            raise ValueError(f"{size - offset} trailing bytes in report")
        report = cls.__new__(cls)
        report._blocks = None
        report._data = data
        report._spans = spans
        return report

    # --- compact (4-byte) ablation encoding ---------------------------------

    def encode_compact(self) -> bytes:
        """4-byte single-match records; ranges are expanded.  Used only by
        the encoding ablation benchmark."""
        blocks = self.blocks
        pieces = [_HEADER.pack(REPORT_VERSION, 1, len(blocks))]
        for middlebox_id in sorted(blocks):
            pairs = self.matches_for(middlebox_id)
            pieces.append(_BLOCK_HEADER.pack(middlebox_id, len(pairs)))
            for pattern_id, position in pairs:
                if position > 0xFFFF:
                    raise ValueError(
                        f"position {position} does not fit the compact encoding"
                    )
                pieces.append(struct.pack(">HH", pattern_id, position))
        return b"".join(pieces)
