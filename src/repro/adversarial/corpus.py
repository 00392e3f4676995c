"""Seeded adversarial corpus generation.

The fingerprinting literature ("Fingerprinting Deep Packet Inspection
Devices by Their Ambiguities") catalogs where real DPI engines disagree:
overlapping TCP segments with conflicting content, patterns split across
packet boundaries, and decoder edge cases.  For a DPI *service* those
ambiguities are existential — the scan-once-for-all-middleboxes thesis
only holds if every kernel family and deployment shape resolves them
identically — so this module generates exactly that traffic, seeded and
reproducible:

* **split** cases — patterns cut across segment boundaries, delivered out
  of order, duplicated, retransmitted with changed payloads, interleaved
  with zero-length keepalives, under both overlap policies;
* **gzip** cases — compressed regions that are truncated, corrupted,
  concatenated, or merely gzip-magic lookalikes, driven through
  :mod:`repro.core.preprocess`;
* **overlap** cases — pathological pattern geometry derived from the
  installed pattern sets: self-overlapping suffixes, prefixes shared
  across middleboxes, matches anchored at the flat kernel's 8-byte unroll
  boundaries and at stopping-condition edges;
* **overflow** cases — out-of-order floods against a tiny reassembly
  buffer, pinning the drop-and-count decision (a ``BufferError`` crash
  here is how this suite found its first real bug).

A corpus is a plain JSON document: an *environment* (pattern sets,
middlebox profiles, chain map — everything an instance needs) plus a list
of :class:`AdversarialCase` records whose segment payloads are base64.
``tests/corpus/`` checks in a minimized corpus as a permanent regression
gate; ``repro-dpi fuzz-diff`` generates fresh ones at any size.
"""

from __future__ import annotations

import base64
import gzip as gzip_module
import json
import random
from dataclasses import dataclass, field

from repro.core.patterns import Pattern, PatternKind
from repro.core.scanner import MiddleboxProfile
from repro.net.reassembly import OVERLAP_POLICIES

#: Case families the generator produces.
CASE_KINDS = ("split", "gzip", "overlap", "overflow")

#: Corpus file format version.
CORPUS_VERSION = 1


@dataclass(frozen=True)
class AdversarialCase:
    """One adversarial traffic sample.

    ``segments`` is the delivery order: ``(flow, seq, payload)`` triples —
    sequence numbers may overlap, repeat, regress, or leave gaps.  The
    *policy* and optional ``max_buffered`` configure the reassembler the
    case must be replayed through; ``preprocess`` routes released bytes
    through gzip-region inflation before scanning.
    """

    name: str
    kind: str
    chain_id: int
    segments: tuple  # ((flow, seq, bytes), ...)
    policy: str = "first"
    preprocess: bool = False
    max_buffered: "int | None" = None

    def __post_init__(self) -> None:
        if self.kind not in CASE_KINDS:
            raise ValueError(
                f"unknown case kind {self.kind!r}; expected one of {CASE_KINDS}"
            )
        if self.policy not in OVERLAP_POLICIES:
            raise ValueError(
                f"unknown overlap policy {self.policy!r}; "
                f"expected one of {OVERLAP_POLICIES}"
            )
        if not self.segments:
            raise ValueError("a case needs at least one segment")

    def to_dict(self) -> dict:
        """JSON-friendly form (payloads base64-encoded)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "chain_id": self.chain_id,
            "policy": self.policy,
            "preprocess": self.preprocess,
            "max_buffered": self.max_buffered,
            "segments": [
                [flow, seq, base64.b64encode(data).decode("ascii")]
                for flow, seq, data in self.segments
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AdversarialCase":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=payload["name"],
            kind=payload["kind"],
            chain_id=payload["chain_id"],
            policy=payload.get("policy", "first"),
            preprocess=payload.get("preprocess", False),
            max_buffered=payload.get("max_buffered"),
            segments=tuple(
                (flow, seq, base64.b64decode(data))
                for flow, seq, data in payload["segments"]
            ),
        )


@dataclass
class CorpusEnvironment:
    """Everything an instance needs to replay a corpus."""

    pattern_sets: dict  # middlebox id -> [Pattern]
    profiles: dict  # middlebox id -> MiddleboxProfile
    chain_map: dict  # chain id -> (middlebox id, ...)

    def to_dict(self) -> dict:
        return {
            "pattern_sets": {
                str(mb): [
                    [
                        p.pattern_id,
                        base64.b64encode(p.data).decode("ascii"),
                        p.kind.value,
                    ]
                    for p in patterns
                ]
                for mb, patterns in self.pattern_sets.items()
            },
            "profiles": {
                str(mb): {
                    "name": prof.name,
                    "stateful": prof.stateful,
                    "stopping_condition": prof.stopping_condition,
                    "read_only": prof.read_only,
                }
                for mb, prof in self.profiles.items()
            },
            "chain_map": {
                str(chain): list(middleboxes)
                for chain, middleboxes in self.chain_map.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CorpusEnvironment":
        return cls(
            pattern_sets={
                int(mb): [
                    Pattern(
                        pattern_id,
                        base64.b64decode(data),
                        kind=PatternKind(kind),
                    )
                    for pattern_id, data, kind in patterns
                ]
                for mb, patterns in payload["pattern_sets"].items()
            },
            profiles={
                int(mb): MiddleboxProfile(
                    int(mb),
                    name=prof["name"],
                    stateful=prof["stateful"],
                    stopping_condition=prof["stopping_condition"],
                    read_only=prof["read_only"],
                )
                for mb, prof in payload["profiles"].items()
            },
            chain_map={
                int(chain): tuple(middleboxes)
                for chain, middleboxes in payload["chain_map"].items()
            },
        )


@dataclass
class Corpus:
    """An environment plus its adversarial cases."""

    environment: CorpusEnvironment
    cases: list = field(default_factory=list)
    seed: "int | None" = None

    def to_dict(self) -> dict:
        return {
            "version": CORPUS_VERSION,
            "seed": self.seed,
            "environment": self.environment.to_dict(),
            "cases": [case.to_dict() for case in self.cases],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Corpus":
        version = payload.get("version", CORPUS_VERSION)
        if version != CORPUS_VERSION:
            raise ValueError(f"unsupported corpus version: {version}")
        return cls(
            environment=CorpusEnvironment.from_dict(payload["environment"]),
            cases=[AdversarialCase.from_dict(c) for c in payload["cases"]],
            seed=payload.get("seed"),
        )

    def dump(self, path) -> None:
        """Write the corpus as JSON to *path*."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=1, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path) -> "Corpus":
        """Read a corpus JSON file."""
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def default_environment() -> CorpusEnvironment:
    """The standard adversarial pattern geometry.

    Deliberately pathological: middlebox 1 carries self-overlapping
    patterns (a suffix that is also a prefix, so occurrences can overlap
    and a split can hide one), middlebox 2 shares prefixes with middlebox
    1 (one trie path, two owners), and middlebox 3 is stateful with
    a stopping condition so the scan limit lands mid-stream.  One regex
    per set keeps the prefilter kernel family honest.
    """
    pattern_sets = {
        1: [
            Pattern(0, b"abab"),  # self-overlapping: "ababab" matches twice
            Pattern(1, b"ababab"),
            Pattern(2, b"attack"),
            Pattern(3, rb"evil\d+", kind=PatternKind.REGEX),
        ],
        2: [
            Pattern(0, b"abax"),  # shares "aba" with middlebox 1
            Pattern(1, b"attach"),  # shares "attac" with "attack"
            Pattern(2, b"virus"),
        ],
        3: [
            Pattern(0, b"boundary"),  # 8 bytes: one flat-kernel unroll
            Pattern(1, b"split-me-in-two"),
            Pattern(2, rb"warm\s+hole", kind=PatternKind.REGEX),
        ],
    }
    profiles = {
        1: MiddleboxProfile(1, name="ids", stateful=True),
        2: MiddleboxProfile(2, name="av", stateful=False),
        3: MiddleboxProfile(3, name="filter", stateful=True, stopping_condition=64),
    }
    chain_map = {100: (1, 2, 3), 101: (1,), 102: (2, 3)}
    return CorpusEnvironment(pattern_sets, profiles, chain_map)


def _literal_pool(environment: CorpusEnvironment) -> list:
    """Literal pattern bytes to embed in generated streams."""
    pool = []
    for patterns in environment.pattern_sets.values():
        for pattern in patterns:
            if pattern.kind is PatternKind.LITERAL:
                pool.append(pattern.data)
    return sorted(set(pool))


_FILLER = b"the quick brown packet jumps over the lazy middlebox "


def _filler(rng: random.Random, length: int) -> bytes:
    start = rng.randrange(len(_FILLER))
    doubled = _FILLER + _FILLER
    out = (doubled[start:] * (length // len(_FILLER) + 2))[:length]
    return out


def _build_stream(rng: random.Random, pool: list, occurrences: int) -> bytes:
    """Filler with *occurrences* embedded patterns (possibly touching)."""
    parts = []
    for _ in range(occurrences):
        parts.append(_filler(rng, rng.randrange(0, 24)))
        parts.append(rng.choice(pool))
    parts.append(_filler(rng, rng.randrange(0, 16)))
    return b"".join(parts)


def _segment_stream(rng: random.Random, stream: bytes) -> list:
    """Cut *stream* into segments, cutting mid-pattern on purpose."""
    cuts = sorted(
        {0, len(stream)}
        | {rng.randrange(1, len(stream)) for _ in range(rng.randrange(1, 6))}
    )
    return [
        (cuts[i], stream[cuts[i] : cuts[i + 1]])
        for i in range(len(cuts) - 1)
    ]


def _make_split_case(
    rng: random.Random, pool: list, index: int, chain_id: int
) -> AdversarialCase:
    stream = _build_stream(rng, pool, rng.randrange(1, 4))
    segments = _segment_stream(rng, stream)
    rng.shuffle(segments)
    delivery = []
    flow = f"flow-{index}"
    for seq, data in segments:
        delivery.append((flow, seq, data))
        if rng.random() < 0.3:  # straight duplicate (retransmission)
            delivery.append((flow, seq, data))
        if rng.random() < 0.25 and data:  # retransmission with changed payload
            mutated = bytes([data[0] ^ 0x20]) + data[1:]
            delivery.append((flow, seq, mutated))
        if rng.random() < 0.2:  # zero-length keepalive probe
            delivery.append((flow, rng.randrange(0, len(stream) + 1), b""))
    if rng.random() < 0.5 and len(stream) > 8:
        # A conflicting overlap inside the stream: same range, hostile
        # content — exactly the ambiguity the overlap policy resolves.
        at = rng.randrange(0, len(stream) - 4)
        delivery.insert(
            rng.randrange(len(delivery) + 1),
            (flow, at, bytes(b ^ 0xFF for b in stream[at : at + 4])),
        )
    return AdversarialCase(
        name=f"split-{index:03d}",
        kind="split",
        chain_id=chain_id,
        policy=rng.choice(OVERLAP_POLICIES),
        segments=tuple(delivery),
    )


def _make_gzip_case(
    rng: random.Random, pool: list, index: int, chain_id: int
) -> AdversarialCase:
    body = _build_stream(rng, pool, rng.randrange(1, 3))
    compressed = gzip_module.compress(body, mtime=0)
    variant = index % 5
    if variant == 0:  # intact member after plain bytes
        payload = _filler(rng, 8) + compressed
    elif variant == 1:  # truncated mid-deflate
        keep = rng.randrange(4, max(5, len(compressed) - 4))
        payload = compressed[:keep]
    elif variant == 2:  # corrupted: flip a byte inside the deflate stream
        at = min(12, len(compressed) - 1)
        payload = (
            compressed[:at]
            + bytes([compressed[at] ^ 0xFF])
            + compressed[at + 1 :]
        )
    elif variant == 3:  # gzip magic without the deflate method byte
        payload = b"\x1f\x8b\x00lookalike" + rng.choice(pool)
    else:  # concatenated members + trailing garbage
        second = gzip_module.compress(rng.choice(pool), mtime=0)
        payload = compressed + second + b"\x1f\x8b"
    flow = f"gz-{index}"
    if rng.random() < 0.5 and len(payload) > 6:
        # Also split the compressed payload across segments.
        segments = _segment_stream(rng, payload)
        rng.shuffle(segments)
        delivery = tuple((flow, seq, data) for seq, data in segments)
    else:
        delivery = ((flow, 0, payload),)
    return AdversarialCase(
        name=f"gzip-{index:03d}",
        kind="gzip",
        chain_id=chain_id,
        policy=rng.choice(OVERLAP_POLICIES),
        preprocess=True,
        segments=delivery,
    )


def _make_overlap_case(
    rng: random.Random, pool: list, index: int, chain_id: int
) -> AdversarialCase:
    variant = index % 4
    if variant == 0:
        # Self-overlapping occurrences: "abababab" holds "abab" three
        # times and "ababab" twice, all overlapping.
        payload = _filler(rng, rng.randrange(0, 8)) + b"ab" * rng.randrange(3, 7)
    elif variant == 1:
        # Shared prefixes diverging at the last byte, back to back.
        payload = b"attack" + b"attach" + b"atta" + b"ck"
    elif variant == 2:
        # A match ending exactly at an 8-byte unroll boundary, then one
        # ending exactly at payload end.
        prefix = _filler(rng, (8 - (len(b"boundary") % 8)) % 8 + 8 * rng.randrange(0, 3))
        payload = prefix + b"boundary" + _filler(rng, 3) + b"virus"
    else:
        # Straddle the stateful stopping condition (middlebox 3, 64 bytes
        # into the flow): the pattern starts before and ends after it.
        payload = _filler(rng, 60) + b"split-me-in-two" + _filler(rng, 5)
    flow = f"ov-{index}"
    if variant == 3:
        # Deliver as two packets of one flow so the straddle crosses a
        # packet boundary *and* the stopping condition.
        cut = 64 + rng.randrange(-4, 5)
        cut = max(1, min(len(payload) - 1, cut))
        delivery = ((flow, 0, payload[:cut]), (flow, cut, payload[cut:]))
    else:
        delivery = ((flow, 0, payload),)
    return AdversarialCase(
        name=f"overlap-{index:03d}",
        kind="overlap",
        chain_id=chain_id,
        segments=delivery,
    )


def _make_overflow_case(
    rng: random.Random, pool: list, index: int, chain_id: int
) -> AdversarialCase:
    """An out-of-order flood against a tiny buffer: the engine must shed
    (drop + count), not crash, and every leg must shed identically."""
    flow = f"of-{index}"
    cap = rng.choice((16, 32, 64))
    head = _filler(rng, 8) + rng.choice(pool)
    delivery = [(flow, 0, head)]
    # Far-future segments that can never drain and must overflow the cap.
    seq = len(head) + rng.randrange(4, 12)  # leave a gap
    for _ in range(rng.randrange(6, 12)):
        chunk = _filler(rng, rng.randrange(6, 14))
        delivery.append((flow, seq, chunk))
        seq += len(chunk) + rng.randrange(0, 3)
    # Fill the gap: whatever survived the cap drains in order.
    delivery.append((flow, len(head), _filler(rng, 4) + rng.choice(pool)))
    return AdversarialCase(
        name=f"overflow-{index:03d}",
        kind="overflow",
        chain_id=chain_id,
        policy=rng.choice(OVERLAP_POLICIES),
        max_buffered=cap,
        segments=tuple(delivery),
    )


_MAKERS = {
    "split": _make_split_case,
    "gzip": _make_gzip_case,
    "overlap": _make_overlap_case,
    "overflow": _make_overflow_case,
}


def generate_corpus(
    seed: int,
    cases_per_kind: int = 8,
    kinds: tuple = CASE_KINDS,
    environment: "CorpusEnvironment | None" = None,
) -> Corpus:
    """A seeded corpus: same seed, same cases, byte for byte."""
    if cases_per_kind < 1:
        raise ValueError(f"cases_per_kind must be positive: {cases_per_kind}")
    unknown = [kind for kind in kinds if kind not in CASE_KINDS]
    if unknown:
        raise ValueError(f"unknown case kinds: {unknown}")
    environment = environment or default_environment()
    pool = _literal_pool(environment)
    rng = random.Random(seed)
    chains = sorted(environment.chain_map)
    cases = []
    for kind in kinds:
        maker = _MAKERS[kind]
        for index in range(cases_per_kind):
            chain_id = chains[rng.randrange(len(chains))]
            cases.append(maker(rng, pool, index, chain_id))
    return Corpus(environment=environment, cases=cases, seed=seed)
