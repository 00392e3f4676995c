"""Unit tests for the scan-kernel layer (:mod:`repro.core.kernels`)."""

import itertools
import weakref
from array import array

import pytest

from repro.core.combined import CombinedAutomaton
from repro.core.controller import DPIController
from repro.core.instance import DPIServiceInstance, InstanceConfig
from repro.core.kernels import (
    KERNEL_NAMES,
    EngineConfigError,
    FlatTableKernel,
    ReferenceKernel,
    RegexPrefilterKernel,
    make_kernel,
)
from repro.core.patterns import Pattern
from repro.core.scanner import MiddleboxProfile
from repro.workloads.patterns import (
    SNORT_PATTERN_COUNT,
    generate_snort_like,
    random_split,
)
from repro.workloads.traffic import TrafficGenerator
from tests.conftest import PrivateOracle, spy_on_fallback

#: Layouts of the private Aho-Corasick automata every scan is checked
#: against (the combined automaton itself has one build).
LAYOUTS = ("sparse", "full")

#: automaton -> the oracle :func:`assert_identical` checks its scans with.
ORACLES = weakref.WeakKeyDictionary()


def build(pattern_sets, layout="sparse", **kwargs):
    sets = {
        middlebox_id: [Pattern(i, data) for i, data in enumerate(patterns)]
        for middlebox_id, patterns in pattern_sets.items()
    }
    automaton = CombinedAutomaton(sets, **kwargs)
    ORACLES[automaton] = PrivateOracle(automaton, sets, layout)
    return automaton


def results_of(automaton, payload, bitmap=None, state=None, limit=None):
    out = {}
    for name in KERNEL_NAMES:
        automaton.select_kernel(name)
        scan = automaton.scan(payload, bitmap, state, limit)
        out[name] = (scan.raw_matches, scan.end_state, scan.bytes_scanned)
    return out


def assert_identical(automaton, payload, bitmap=None, state=None, limit=None):
    """Every kernel returns the same scan, and it is what the private
    automata find; returns ``(raw matches, end state, bytes scanned)``."""
    out = results_of(automaton, payload, bitmap, state, limit)
    assert out["flat"] == out["reference"]
    assert out["regex"] == out["reference"]
    automaton.select_kernel("reference")
    ORACLES[automaton].check(
        automaton.scan(payload, bitmap, state, limit), payload, bitmap, state, limit
    )
    return out["reference"]


class TestKernelEquivalence:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_suffix_match_inside_longer_pattern(self, layout):
        automaton = build({1: [b"b", b"abc"]}, layout=layout)
        raw, _, _ = assert_identical(automaton, b"xabcx")
        positions = sorted(cnt for _, cnt in raw)
        assert positions == [3, 4]  # "b" ends at 3, "abc" at 4

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_prefix_and_full_pattern(self, layout):
        automaton = build({1: [b"ab", b"abc"]}, layout=layout)
        raw, _, _ = assert_identical(automaton, b"abc")
        assert sorted(cnt for _, cnt in raw) == [2, 3]

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_overlapping_occurrences(self, layout):
        automaton = build({1: [b"aa"]}, layout=layout)
        raw, _, _ = assert_identical(automaton, b"aaaa")
        assert sorted(cnt for _, cnt in raw) == [2, 3, 4]

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_limit_bounded_scan(self, layout):
        automaton = build({1: [b"attack"]}, layout=layout)
        for limit in (0, 3, 6, 9, 100):
            raw, _, scanned = assert_identical(
                automaton, b"an attack here", limit=limit
            )
            assert scanned == min(limit, 14)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_mid_flow_resume(self, layout):
        automaton = build({1: [b"attack"]}, layout=layout)
        payload = b"half an att" + b"ack continues"
        for cut in range(len(payload)):
            automaton.select_kernel("reference")
            mid = automaton.scan(payload[:cut]).end_state
            assert_identical(automaton, payload[cut:], state=mid)

    def test_active_bitmap_filters_identically(self):
        automaton = build({1: [b"shared", b"one"], 2: [b"shared", b"two"]})
        payload = b"one shared two"
        for bitmap in (None, 0, 1 << 1, 1 << 2, (1 << 1) | (1 << 2)):
            assert_identical(automaton, payload, bitmap=bitmap)

    def test_empty_pattern_set(self):
        automaton = build({1: []})
        raw, end, scanned = assert_identical(automaton, b"anything at all")
        assert raw == []
        assert end == automaton.root
        assert scanned == 15

    def test_empty_payload(self):
        automaton = build({1: [b"abc"]})
        raw, end, scanned = assert_identical(automaton, b"")
        assert raw == [] and scanned == 0

    def test_long_payload_exercises_unrolled_and_tail_loops(self):
        automaton = build({1: [b"needle"]})
        for tail in range(9):  # payload lengths across the 8-byte unroll
            payload = (b"x" * 64) + b"needle" + (b"y" * tail)
            raw, _, _ = assert_identical(automaton, payload)
            assert any(cnt == 70 for _, cnt in raw)  # the needle's end

    def test_regex_kernel_dense_anchor_payload_bails_correctly(self):
        # Every payload byte is an anchor byte: the prefilter must bail to
        # the flat path and still agree with the reference.
        automaton = build({1: [b"\xff\xfe", b"\xfe\xff"]})
        payload = b"\xff\xfe\xff\xfe\xff"
        assert_identical(automaton, payload)

    def test_regex_kernel_sparse_anchor_payload(self):
        automaton = build({1: [b"rare\x00sig"]})
        payload = b"printable filler " * 20 + b"rare\x00sig" + b" more filler"
        raw, _, _ = assert_identical(automaton, payload)
        assert len(raw) == 1

    def test_match_straddling_region_boundaries(self):
        # Anchor (\x00) sits mid-pattern; occurrences near payload edges.
        automaton = build({1: [b"ab\x00cd"]})
        for payload in (
            b"ab\x00cd",
            b"ab\x00cdab\x00cd",
            b"xxxxab\x00cd",
            b"ab\x00cdyyyy",
            b"\x00ab\x00cd\x00",
        ):
            assert_identical(automaton, payload)

    def test_kernels_agree_on_a_2000_pattern_corpus(self):
        # The one check the deleted kernel ablation had that was not a
        # timing: at Snort-like scale, on a seeded HTTP trace with injected
        # matches, every kernel returns the same matches and end states.
        patterns = generate_snort_like(count=2000, seed=1)
        trace = TrafficGenerator(seed=7, style="http").trace(
            20, patterns=patterns, match_rate=0.08
        )
        automaton = build({0: patterns})
        matched = 0
        for payload in trace.payloads:
            raw, _, _ = assert_identical(automaton, payload)
            matched += bool(raw)
        assert matched


class TestByteClassMap:
    """Edges of the byte -> class map the flat table's columns stand for
    (the regex kernel replays its regions through the same table)."""

    @staticmethod
    def table_width(automaton):
        kernel = FlatTableKernel(automaton)
        return len(kernel._delta) // automaton.num_states

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_empty_pattern_set_has_one_class(self, layout):
        automaton = build({1: []}, layout=layout)
        assert self.table_width(automaton) == 1
        for payload in (b"", b"x", bytes(range(256))):
            raw, end, scanned = assert_identical(automaton, payload)
            assert (raw, end, scanned) == ([], automaton.root, len(payload))

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_one_byte_alphabet(self, layout):
        automaton = build({1: [b"a", b"aaa"]}, layout=layout)
        assert self.table_width(automaton) == 2
        raw, _, _ = assert_identical(automaton, b"aaaa\x00aab a")
        # One raw match per accepting state reached ("aaa" carries "a" too).
        assert [cnt for _, cnt in raw] == [1, 2, 3, 4, 6, 7, 10]

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("distinct", (254, 255, 256))
    def test_alphabet_at_the_identity_threshold(self, layout, distinct):
        # 254 bytes in use still merge the last two; from 255 on every byte
        # is its own class and the payload is scanned untranslated.
        used = bytes(range(1, distinct)) + b"\x00"
        patterns = [used[i : i + 5] for i in range(0, distinct, 5)]
        automaton = build({1: patterns}, layout=layout)
        kernel = FlatTableKernel(automaton)
        assert (kernel._classes is None) == (distinct >= 255)
        assert self.table_width(automaton) == min(distinct + 1, 256)
        payload = b"\xfe\xff" + used + b"\xff\xfe" + used[::-1] + used[3:40]
        raw, _, _ = assert_identical(automaton, payload)
        assert len(raw) >= len(patterns)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_payload_of_only_out_of_alphabet_bytes(self, layout):
        automaton = build({1: [b"abc", b"cab"]}, layout=layout)
        for payload in (b"xyz" * 11, bytes(range(128, 256)), b"\x00"):
            raw, end, _ = assert_identical(automaton, payload)
            assert raw == [] and end == automaton.root

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_out_of_alphabet_byte_splits_a_would_be_match(self, layout):
        automaton = build({1: [b"abcd", b"cd"]}, layout=layout)
        raw, _, _ = assert_identical(automaton, b"ab\x00cd ab-cd abXcd abcd")
        # "cd" three times, then the one state that carries "abcd" and "cd".
        assert [cnt for _, cnt in raw] == [5, 11, 17, 22]
        assert len(automaton.match_entry(raw[-1][0])) == 2
        # Two different outsiders are one class, not each other's match.
        raw, _, _ = assert_identical(automaton, b"ab\x00d ab\xffd")
        assert raw == []

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_payload_types_scan_alike(self, layout):
        automaton = build({1: [b"needle", b"dle"]}, layout=layout)
        payload = b"hay needle hay \x00\xff needle"
        expected = assert_identical(automaton, payload)
        for wrap in (bytearray, memoryview):
            assert assert_identical(automaton, wrap(payload)) == expected
        assert assert_identical(automaton, memoryview(payload)[4:18]) == (
            assert_identical(automaton, payload[4:18])
        )

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_limit_inside_a_pattern(self, layout):
        automaton = build({1: [b"attack"]}, layout=layout)
        payload = b"__attack__"
        for limit in range(len(payload) + 2):
            raw, end, scanned = assert_identical(automaton, payload, limit=limit)
            assert scanned == min(limit, len(payload))
            assert len(raw) == (limit >= 8)
            # Cut inside (or right after) the pattern the end state is that
            # prefix, not the root.
            assert (end != automaton.root) == (3 <= limit <= 8)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_resume_from_a_carried_non_root_state(self, layout):
        automaton = build({1: [b"attack", b"tack!"]}, layout=layout)
        automaton.select_kernel("reference")
        carried = automaton.scan(b"an att").end_state
        assert carried != automaton.root
        raw, _, _ = assert_identical(automaton, b"ack! then", state=carried)
        assert sorted(cnt for _, cnt in raw) == [3, 4]
        # An outsider first: the carried prefix is dropped.
        raw, _, _ = assert_identical(automaton, b"\x00ack!", state=carried)
        assert raw == []

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_accepting_state_ids_beyond_k_and_256(self, layout):
        # Every string over {a, b} up to length 8: 510 accepting states on a
        # three-column table, so most ids exceed both k and 256 and go
        # through the pre-multiply / divide round trip.
        patterns = [
            bytes(word)
            for length in range(1, 9)
            for word in itertools.product(b"ab", repeat=length)
        ]
        automaton = build({1: patterns}, layout=layout)
        assert self.table_width(automaton) == 3
        assert automaton.num_accepting == 510
        raw, _, _ = assert_identical(automaton, b"abbabaab\x00babbbaba" * 3)
        states = {state for state, _ in raw}
        assert min(states) < 3 and max(states) >= 256
        # The same with the identity map: 300 accepting states, 256 columns.
        wide = [bytes([b]) for b in range(256)] + [
            bytes([b, b ^ 1]) for b in range(44)
        ]
        automaton = build({1: wide}, layout=layout)
        assert self.table_width(automaton) == 256
        raw, _, _ = assert_identical(automaton, bytes(range(256)) * 2)
        assert max(state for state, _ in raw) >= 256


class TestRegexKernelResume:
    """Mid-flow resumes and bounded scans stay on the prefilter path.

    ``SIG`` is as long as the window (8) and anchored on its first byte;
    ``\x02yz`` gives a second, shorter signature.  Filler is never an
    anchor, so every fallback call below is a decision, not an accident.
    """

    SIG = b"\x01abcdefg"
    SHORT = b"\x02yz"
    WINDOW = 8
    FILLER = b"filler without anchors, " * 8

    def resumed(self, layout, head, tail, limit=None):
        """Scan *tail* from the state *head* leaves; (reference result,
        fallback calls of the regex kernel)."""
        automaton = build({1: [self.SIG, self.SHORT]}, layout=layout)
        automaton.select_kernel("reference")
        state = automaton.scan(head).end_state
        expected = assert_identical(automaton, tail, state=state, limit=limit)
        automaton.select_kernel("regex")
        calls = spy_on_fallback(automaton._kernel)
        automaton.scan(tail, None, state, limit)
        return expected, calls

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_match_ends_on_the_last_lead_in_byte(self, layout):
        # Only the carried state can see it: the tail holds no anchor.
        (raw, _, _), calls = self.resumed(
            layout, self.FILLER + self.SIG[:1], self.SIG[1:] + self.FILLER
        )
        assert [cnt for _, cnt in raw] == [self.WINDOW - 1]
        assert calls == []

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_match_ends_on_the_first_byte_past_the_lead_in(self, layout):
        # Carried state is one byte deep; the whole signature follows.
        (raw, _, _), calls = self.resumed(
            layout, self.FILLER + self.SIG[:1], self.SIG + self.FILLER
        )
        assert [cnt for _, cnt in raw] == [self.WINDOW]
        assert calls == []

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_anchor_run_inside_lead_in_reaching_past_it(self, layout):
        # One straddling match inside the lead-in, then a signature whose
        # anchor is in the lead-in and whose end is past it: each once.
        tail = self.SHORT[1:] + b"x" + self.SIG + self.FILLER
        (raw, _, _), calls = self.resumed(
            layout, self.FILLER + self.SHORT[:1], tail
        )
        assert [cnt for _, cnt in raw] == [2, 3 + self.WINDOW]
        assert calls == []

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_slice_shorter_than_window_with_carried_state(self, layout):
        for size in range(self.WINDOW):
            tail = (self.SIG[1:] + b"zz")[:size]
            (_, _, scanned), calls = self.resumed(
                layout, self.FILLER + self.SIG[:1], tail
            )
            assert scanned == size
            assert [length for length, _ in calls] == [size]  # flat's job

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_limit_inside_and_past_the_lead_in(self, layout):
        tail = self.SIG[1:] + self.FILLER + self.SIG + self.FILLER
        past = len(self.SIG[1:] + self.FILLER) + 3  # cuts the second SIG
        for limit in (0, 1, self.WINDOW - 2, self.WINDOW - 1, self.WINDOW,
                      40, past, len(tail), len(tail) + 5):
            (raw, _, scanned), calls = self.resumed(
                layout, self.FILLER + self.SIG[:1], tail, limit=limit
            )
            assert scanned == min(limit, len(tail))
            assert len(raw) == (limit >= self.WINDOW - 1) + (limit >= len(tail))
            assert bool(calls) == (limit < self.WINDOW)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_bounded_root_start_stays_on_prefilter(self, layout):
        automaton = build({1: [self.SIG]}, layout=layout)
        payload = self.FILLER + self.SIG + self.FILLER
        assert_identical(automaton, payload, limit=len(self.FILLER) + 4)
        automaton.select_kernel("regex")
        calls = spy_on_fallback(automaton._kernel)
        for data in (payload, bytearray(payload), memoryview(payload)):
            automaton.scan(data, None, None, len(self.FILLER) + 4)
        assert calls == []

    def test_empty_pattern_set_bounded(self):
        automaton = build({1: []})
        raw, end, scanned = assert_identical(
            automaton, b"anything at all", state=automaton.root, limit=4
        )
        assert (raw, end, scanned) == ([], automaton.root, 4)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_resumed_anchor_flood_bails_to_flat(self, layout):
        # Heavy flows must stay heavy at flat speed, not collapse: one
        # whole-payload hand-off, whatever the spacing of the anchors.
        for tail in (b"\x01\x02" * 200, b"\x01zz" * 200, b"\x01" + b"z" * 15):
            tail = self.SIG[1:] + tail * 4
            _, calls = self.resumed(layout, self.FILLER + self.SIG[:1], tail)
            assert [size for size, _ in calls] == [len(tail)]

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_density_bail_measures_coverage_not_anchor_count(self, layout):
        # 60 anchor bytes in three runs: count x window says "dense", the
        # regions they merge into cover a small part of the payload.
        automaton = build({1: [self.SIG]}, layout=layout)
        payload = (self.FILLER + b"\x01" * 20) * 3 + self.FILLER
        assert 60 * self.WINDOW * 2 >= len(payload)
        assert_identical(automaton, payload)
        automaton.select_kernel("regex")
        calls = spy_on_fallback(automaton._kernel)
        automaton.scan(payload)
        assert calls == []


@pytest.mark.parametrize(
    "kernel_cls", [ReferenceKernel, FlatTableKernel, RegexPrefilterKernel]
)
def test_kernel_public_methods_are_the_contract(kernel_cls):
    """The equivalence tests prove kernels identical through ``scan`` only,
    so any other public method (dunders besides ``__init__`` included)
    would be surface they never cover.  ``name`` is the contract's tag."""
    surface = {
        name
        for name, member in vars(kernel_cls).items()
        if not name.startswith("_")
        or (callable(member) and name.endswith("__") and name != "__init__")
    }
    assert surface == {"name", "scan"}


class TestKernelSelection:
    def test_unknown_kernel_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            build({1: [b"abc"]}, kernel="turbo")

    def test_unknown_kernel_rejected_at_select(self):
        automaton = build({1: [b"abc"]})
        with pytest.raises(ValueError, match="unknown kernel"):
            automaton.select_kernel("turbo")

    def test_make_kernel_unknown_name(self):
        automaton = build({1: [b"abc"]})
        with pytest.raises(ValueError, match="unknown kernel"):
            make_kernel(automaton, "turbo")

    def test_default_kernel_is_flat(self):
        # The kernel the service's instances run (InstanceConfig's default).
        assert build({1: [b"abc"]}).kernel_name == "flat"

    def test_kernel_name_tracks_selection(self):
        automaton = build({1: [b"abc"]})
        automaton.select_kernel("flat")
        assert automaton.kernel_name == "flat"

    def test_flat_table_shape(self):
        # One column per distinct pattern byte plus one for all the others,
        # capped at 256.
        for patterns, k in (
            ([b"ab"], 3),
            ([b"ab", b"ba", b"abba"], 3),
            ([bytes(range(200))], 201),
            ([bytes(range(254))], 255),
            ([bytes(range(255))], 256),
            ([bytes(range(256))], 256),
        ):
            automaton = build({1: patterns})
            kernel = FlatTableKernel(automaton)
            assert len(kernel._delta) == automaton.num_states * k
            assert (kernel._classes is None) == (k == 256)

    def test_regex_kernel_anchor_bytes_cover_patterns(self):
        automaton = build({1: [b"abc\xffx", b"plain"]})
        kernel = RegexPrefilterKernel(automaton)
        assert any(bytes([b]) in b"abc\xffx" for b in kernel.anchor_bytes)

    def test_instance_config_validates_kernel(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            InstanceConfig(
                pattern_sets={1: []},
                profiles={1: MiddleboxProfile(1)},
                chain_map={},
                kernel="turbo",
            )

    def test_instance_config_validates_cache_size(self):
        # The scan cache is gone: InstanceConfig has no such option, and
        # build_config accepts only the 0 the perf harness still passes.
        with pytest.raises(TypeError, match="scan_cache_size"):
            InstanceConfig(
                pattern_sets={1: []},
                profiles={1: MiddleboxProfile(1)},
                chain_map={},
                scan_cache_size=0,
            )
        manager = DPIController().instances
        assert manager.build_config(scan_cache_size=0) == manager.build_config()
        for size in (-1, 8):
            with pytest.raises(EngineConfigError, match="scan cache is gone"):
                manager.build_config(scan_cache_size=size)


def big_sequences(root, floor):
    """Every list/array of at least *floor* elements reachable through the
    attributes of *root* and of the repro objects it holds, by identity."""
    found, seen, stack = {}, set(), [root]
    while stack:
        owner = stack.pop()
        if id(owner) in seen:
            continue
        seen.add(id(owner))
        for name, value in vars(owner).items():
            if isinstance(value, (list, array)) and len(value) >= floor:
                found[id(value)] = f"{type(owner).__name__}.{name}"
            elif type(value).__module__.startswith("repro.") and hasattr(
                value, "__dict__"
            ):
                stack.append(value)
    return found


class TestTableSize:
    """The paper-sized Snort set fits one compact table — a size, not a
    timing, so the second copy cannot come back unnoticed."""

    @pytest.mark.parametrize("kernel", ("flat", "regex"))
    def test_snort_set_holds_one_table_of_class_columns(self, kernel):
        literals = generate_snort_like(SNORT_PATTERN_COUNT, seed=1)
        halves = random_split(literals, parts=2, seed=1, shared_fraction=0.10)
        instance = DPIServiceInstance(
            InstanceConfig(
                pattern_sets={
                    mid: [Pattern(i, data) for i, data in enumerate(half)]
                    for mid, half in enumerate(halves, 1)
                },
                profiles={1: MiddleboxProfile(1), 2: MiddleboxProfile(2)},
                chain_map={100: (1, 2)},
                kernel=kernel,
            )
        )
        automaton = instance.automaton
        flat = automaton._kernel if kernel == "flat" else automaton._kernel._fallback
        k = len(set(b"".join(literals))) + 1
        entries = automaton.num_states * k
        assert len(flat._delta) == entries
        assert entries * 3 <= automaton.num_states * 256
        found = big_sequences(instance, entries)
        assert set(found) == {id(flat._delta)}, found.values()


def make_instance_config(kernel, stateful=False):
    from repro.core.patterns import PatternKind

    return InstanceConfig(
        pattern_sets={
            1: [
                Pattern(0, b"attack"),
                Pattern(1, rb"regular\s*expression", kind=PatternKind.REGEX),
            ],
            2: [Pattern(0, b"virus123")],
        },
        profiles={
            1: MiddleboxProfile(1, name="ids", stateful=stateful),
            2: MiddleboxProfile(2, name="av", stateful=stateful),
        },
        chain_map={100: (1, 2)},
        kernel=kernel,
    )


class TestInstanceKernels:
    PAYLOADS = [
        b"an attack with a regular expression and virus123",
        b"clean traffic",
        b"virus123 virus123",
        b"",
    ]

    def test_instance_output_identical_across_kernels(self):
        instances = {
            name: DPIServiceInstance(make_instance_config(name))
            for name in KERNEL_NAMES
        }
        for payload in self.PAYLOADS:
            outputs = {
                name: instance.inspect(payload, chain_id=100)
                for name, instance in instances.items()
            }
            reference = outputs["reference"]
            for name in ("flat", "regex"):
                assert outputs[name].matches == reference.matches
                assert (
                    outputs[name].report.encode() == reference.report.encode()
                )

    def test_stateful_flow_identical_across_kernels(self):
        instances = {
            name: DPIServiceInstance(make_instance_config(name, stateful=True))
            for name in KERNEL_NAMES
        }
        chunks = [b"a split att", b"ack arrives", b" with virus", b"123 too"]
        for index, chunk in enumerate(chunks):
            outputs = {
                name: instance.inspect(chunk, chain_id=100, flow_key="flow-1")
                for name, instance in instances.items()
            }
            reference = outputs["reference"]
            for name in ("flat", "regex"):
                assert outputs[name].matches == reference.matches, (index, name)

    def test_instance_kernel_knob_reaches_automaton(self):
        instance = DPIServiceInstance(make_instance_config("regex"))
        assert instance.automaton.kernel_name == "regex"
        assert instance.config.kernel == "regex"
