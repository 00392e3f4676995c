"""Property-based differential test: all kernels are byte-identical.

Random pattern sets over a small alphabet (to force overlaps, shared
prefixes, and suffix matches) are scanned over random payloads — from the
root, resumed mid-flow, and under byte limits — and every kernel must
produce exactly the reference kernel's raw matches, end state, and byte
count.  A second property checks the same at the instance level, where raw
matches become middlebox reports.  A third compares every kernel — the
reference included — against ``perf.oracle.find_all``, which shares no code
with the automaton, on payloads that are mostly bytes no pattern uses.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from perf.oracle import find_all

from repro.core.combined import CombinedAutomaton
from repro.core.instance import DPIServiceInstance, InstanceConfig
from repro.core.kernels import KERNEL_NAMES
from repro.core.patterns import Pattern
from repro.core.scanner import MiddleboxProfile
from repro.net.reassembly import OVERLAP_POLICIES, StreamReassembler
from tests.conftest import spy_on_fallback

# A tiny alphabet plus one binary byte: overlap-heavy, and exercises the
# regex kernel's anchor classes on both printable and non-printable bytes.
ALPHABET = list(b"ab\x00c")

pattern_bytes = st.builds(
    bytes, st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=6)
)
pattern_lists = st.lists(pattern_bytes, min_size=1, max_size=8)
payloads = st.builds(
    bytes, st.lists(st.sampled_from(ALPHABET), min_size=0, max_size=96)
)


def build_automaton(patterns, second_set):
    sets = {1: [Pattern(i, p) for i, p in enumerate(patterns)]}
    if second_set:
        sets[2] = [Pattern(i, p) for i, p in enumerate(second_set)]
    return CombinedAutomaton(sets)


@settings(max_examples=120, deadline=None)
@given(
    patterns=pattern_lists,
    second_set=st.one_of(st.just([]), pattern_lists),
    payload=payloads,
    bitmap_choice=st.sampled_from(("all", "none", "first", "zero")),
    limit=st.one_of(st.none(), st.integers(min_value=0, max_value=100)),
    cut_fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_kernels_scan_identically(
    patterns, second_set, payload, bitmap_choice, limit, cut_fraction
):
    automaton = build_automaton(patterns, second_set)
    bitmap = {
        "all": None,
        "none": automaton.all_middleboxes_bitmap,
        "first": automaton.bitmask_of([1]),
        "zero": 0,
    }[bitmap_choice]

    # A mid-flow resume state, derived with the reference kernel.
    cut = int(len(payload) * cut_fraction)
    automaton.select_kernel("reference")
    resume_state = automaton.scan(payload[:cut]).end_state

    expected_root = None
    expected_resumed = None
    for name in KERNEL_NAMES:
        automaton.select_kernel(name)
        root_scan = automaton.scan(payload, bitmap, None, limit)
        resumed_scan = automaton.scan(payload[cut:], bitmap, resume_state, limit)
        root = (root_scan.raw_matches, root_scan.end_state, root_scan.bytes_scanned)
        resumed = (
            resumed_scan.raw_matches,
            resumed_scan.end_state,
            resumed_scan.bytes_scanned,
        )
        if name == "reference":
            expected_root, expected_resumed = root, resumed
        else:
            assert root == expected_root, name
            assert resumed == expected_resumed, name


# --- the regex kernel's prefilter path ---------------------------------------
#
# The alphabet above makes every byte an anchor, so the regex kernel bails to
# its flat fallback on each of those payloads.  Here every pattern carries
# one of two rare bytes (which therefore become the only anchors) and the
# payloads are mostly filler, so resumes, limits and region merging run
# through the prefilter itself.

RARE = list(b"\x01\x02")
FILLER = list(b"xyz")

sparse_patterns = st.lists(
    st.tuples(
        st.lists(st.sampled_from(FILLER), max_size=3),
        st.sampled_from(RARE),
        st.lists(st.sampled_from(FILLER + RARE), max_size=3),
    ).map(lambda parts: bytes([*parts[0], parts[1], *parts[2]])),
    min_size=1,
    max_size=5,
)


@st.composite
def sparse_flows(draw):
    """``(patterns, head, tail)``: a flow cut where a pattern straddles.

    The tail is the straddler's remainder, then up to two hot spots (a
    pattern or a lone rare byte) between filler stretches measured in
    windows — long enough that the regions do not cover the payload.
    """
    patterns = draw(sparse_patterns)
    window = max(len(pattern) for pattern in patterns)

    def filler(max_windows):
        length = draw(st.integers(min_value=0, max_value=max_windows * window))
        return (b"xyz" * length)[draw(st.integers(0, 2)) :][:length]

    hot = st.one_of(
        st.just(b""),
        st.sampled_from(patterns),
        st.sampled_from(RARE).map(lambda byte: bytes([byte])),
    )
    straddler = draw(st.sampled_from(patterns))
    split = draw(st.integers(min_value=0, max_value=len(straddler)))
    head = filler(2) + draw(hot) + straddler[:split]
    tail = (
        straddler[split:] + filler(2) + draw(hot) + filler(12) + draw(hot) + filler(3)
    )
    return patterns, head, tail


@settings(max_examples=200, deadline=None)
@given(
    flow=sparse_flows(),
    limit=st.one_of(st.none(), st.integers(min_value=0, max_value=150)),
    wrap=st.sampled_from((bytes, bytearray, memoryview)),
)
def test_sparse_anchor_resumes_scan_identically(flow, limit, wrap):
    patterns, head, tail = flow
    automaton = build_automaton(patterns, [])
    window = max(len(pattern) for pattern in patterns)
    resume_state = automaton.scan(head).end_state
    results = {}
    for name in KERNEL_NAMES:
        automaton.select_kernel(name)
        if name == "regex":
            fallback_calls = spy_on_fallback(automaton._kernel)
        scan = automaton.scan(wrap(tail), None, resume_state, limit)
        results[name] = (scan.raw_matches, scan.end_state, scan.bytes_scanned)
    assert results["flat"] == results["reference"]
    assert results["regex"] == results["reference"]
    # An anchor-free slice at least a window long is never the fallback's
    # job, whatever state the flow carried in.
    scanned = tail if limit is None else tail[:limit]
    if len(scanned) >= window and not set(scanned) & set(RARE):
        assert fallback_calls == []


# --- the independent oracle, on the byte-class map ---------------------------
#
# Patterns over 2-6 byte values, payloads that draw at least half their bytes
# from outside them: the flat table has 3-7 columns and most payload bytes
# land in the shared "other" class, so it is the class map — not the identity
# path the 256-value corpora take — that gets fuzzed.


@st.composite
def small_alphabet_flows(draw):
    """``(patterns, payload, cut)`` with at least half of *payload* outside
    the patterns' alphabet."""
    alphabet = draw(
        st.lists(st.integers(0, 255), min_size=2, max_size=6, unique=True)
    )
    patterns = draw(
        st.lists(
            st.builds(
                bytes, st.lists(st.sampled_from(alphabet), min_size=1, max_size=5)
            ),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    inside = st.one_of(
        st.sampled_from(patterns),
        st.builds(bytes, st.lists(st.sampled_from(alphabet), max_size=4)),
    )
    outsider = st.integers(0, 255).filter(lambda byte: byte not in alphabet)
    payload = b""
    for chunk in draw(st.lists(inside, max_size=8)):
        run = draw(
            st.lists(outsider, min_size=len(chunk), max_size=len(chunk) + 6)
        )
        split = draw(st.integers(0, len(run)))
        payload += bytes(run[:split]) + chunk + bytes(run[split:])
    cut = draw(st.integers(0, len(payload)))
    return patterns, payload, cut


@settings(max_examples=150, deadline=None)
@given(
    flow=small_alphabet_flows(),
    wrap=st.sampled_from((bytes, bytearray, memoryview)),
)
def test_kernels_agree_with_the_independent_oracle(flow, wrap):
    patterns, payload, cut = flow
    expected = sorted(
        (end, index)
        for index, pattern in enumerate(patterns)
        for end in find_all(payload, pattern)
    )
    automaton = build_automaton(patterns, [])

    def resolved(scan, offset=0):
        return [
            (cnt + offset, pattern_id)
            for state, cnt in scan.raw_matches
            for _, pattern_id in automaton.match_entry(state)
        ]

    for name in KERNEL_NAMES:
        automaton.select_kernel(name)
        assert sorted(resolved(automaton.scan(wrap(payload)))) == expected, name
        # The same flow in two packets: the carried state crosses the cut.
        head = automaton.scan(wrap(payload[:cut]))
        tail = automaton.scan(wrap(payload[cut:]), None, head.end_state)
        assert sorted(resolved(head) + resolved(tail, cut)) == expected, name


@settings(max_examples=40, deadline=None)
@given(
    patterns=pattern_lists,
    chunks=st.lists(payloads, min_size=1, max_size=4),
    stateful=st.booleans(),
)
def test_instances_report_identically(patterns, chunks, stateful):
    instances = {}
    for name in KERNEL_NAMES:
        config = InstanceConfig(
            pattern_sets={1: [Pattern(i, p) for i, p in enumerate(patterns)]},
            profiles={1: MiddleboxProfile(1, name="ids", stateful=stateful)},
            chain_map={100: (1,)},
            kernel=name,
        )
        instances[name] = DPIServiceInstance(config)
    for chunk in chunks:
        outputs = {
            name: instance.inspect(chunk, chain_id=100, flow_key="flow")
            for name, instance in instances.items()
        }
        reference = outputs["reference"]
        for name in ("flat", "regex"):
            assert outputs[name].matches == reference.matches, name
            assert outputs[name].report.encode() == reference.report.encode()
            assert outputs[name].bytes_scanned == reference.bytes_scanned


@settings(max_examples=40, deadline=None)
@given(
    patterns=pattern_lists,
    stream=st.builds(
        bytes, st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=80)
    ),
    cut_points=st.lists(
        st.integers(min_value=1, max_value=79), max_size=5
    ),
    order_seed=st.integers(min_value=0, max_value=2**16),
    policy=st.sampled_from(OVERLAP_POLICIES),
    duplicate=st.booleans(),
    conflict=st.booleans(),
)
def test_reassembled_ambiguous_streams_scan_identically(
    patterns, stream, cut_points, order_seed, policy, duplicate, conflict
):
    """Reassembly-aware equivalence: segment a stream adversarially
    (reordered, duplicated, conflictingly-overlapped), reassemble under a
    policy, and every kernel must agree on every released chunk — with
    per-flow DFA state carried across chunk boundaries."""
    cuts = sorted({cut for cut in cut_points if cut < len(stream)})
    bounds = [0, *cuts, len(stream)]
    segments = [
        (bounds[i], stream[bounds[i] : bounds[i + 1]])
        for i in range(len(bounds) - 1)
    ]
    rng = random.Random(order_seed)
    if duplicate:
        segments.append(rng.choice(segments))
    if conflict:
        seq, data = rng.choice(segments)
        segments.append((seq, bytes(byte ^ 0x01 for byte in data)))
    rng.shuffle(segments)

    instances = {}
    for name in KERNEL_NAMES:
        config = InstanceConfig(
            pattern_sets={1: [Pattern(i, p) for i, p in enumerate(patterns)]},
            profiles={1: MiddleboxProfile(1, name="ids", stateful=True)},
            chain_map={100: (1,)},
            kernel=name,
        )
        instances[name] = DPIServiceInstance(config)

    reassembler = StreamReassembler(policy=policy)
    released_total = 0
    for seq, data in segments:
        released = reassembler.add_segment(seq, data)
        released_total += len(released)
        if not released:
            continue
        outputs = {
            name: instance.inspect(released, chain_id=100, flow_key="flow")
            for name, instance in instances.items()
        }
        reference = outputs["reference"]
        for name in ("flat", "regex"):
            assert outputs[name].matches == reference.matches, name
            assert outputs[name].bytes_scanned == reference.bytes_scanned

    # Policy choice resolves WHICH bytes win an ambiguous overlap, never
    # HOW MANY bytes the stream covers: the other policy must release
    # exactly the same amount from the same segment plan.
    other = StreamReassembler(
        policy="last" if policy == "first" else "first"
    )
    other_total = sum(
        len(other.add_segment(seq, data)) for seq, data in segments
    )
    assert other_total == released_total
