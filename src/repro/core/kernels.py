"""Selectable scan kernels for the combined automaton (the hot path).

The combined automaton's per-byte loop is where the whole service spends its
time, so it is isolated here behind one small contract: a kernel is built
from a :class:`~repro.core.combined.CombinedAutomaton` and exposes
``scan(data, active_bitmap, state, limit) -> CombinedScanResult``.  Every
kernel must produce *byte-identical* results — same raw ``(accepting state,
cnt)`` pairs, same end state, same byte count — which the differential
property test (``tests/test_kernels_properties.py``) enforces.

Three kernels are provided:

* ``"reference"`` — the original per-byte Python loop, walking the sparse
  goto/fail tables.  Kept as the executable specification the others are
  checked against.
* ``"flat"`` — one contiguous next-state table of ``num_states * k`` list
  entries, where ``k`` is the number of byte classes: every byte some
  pattern uses is its own class, all the others share class 0 (two bytes
  have identical columns iff neither labels a trie edge, so the map is
  read off the pattern set).  The payload is mapped to classes once per
  scan by ``bytes.translate``; entries hold ``next_state * k``, so a DFA
  step is a single ``delta[state + cls]`` lookup (list subscripts and
  integer ``+`` are specialized by CPython 3.11's adaptive interpreter).
  The loop is unrolled eight-ways over strided slices, with every loop
  variable bound to a local.  The table is built once at kernel
  construction, straight into this form.
* ``"regex"`` — a rare-byte prefilter that keeps anchor-sparse scans inside
  CPython's C machinery.  Each distinct literal contributes its rarest byte
  (under a static traffic-frequency prior) to one anchor character class,
  compiled once into a single ``re`` scanner; any match occurrence must put
  an anchor byte inside its span, so the DFA only has to replay short
  windows around anchor runs, where the suffix-closed match tables built in
  ``CombinedAutomaton._build_renumbered`` recover every overlapping/suffix
  match exactly.  A mid-flow resume adds one more window: the carried state
  is stepped through the first ``max_pattern_length - 1`` bytes, the only
  match ends it can influence.  ``limit`` is a slice of the same scheme.
  Payloads whose windows would cover half of them bail out to the flat
  kernel (a C-level ``translate`` count up front, the measured coverage
  while the anchor runs are merged), so an anchor flood costs a small
  multiple of a flat scan instead of collapsing; on high-entropy signature
  corpora (ClamAV-like) the anchors are bytes that web-ish traffic almost
  never carries and whole payloads are dismissed at C scan speed.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

#: Kernel names accepted by ``CombinedAutomaton`` / ``InstanceConfig``.
KERNEL_NAMES = ("reference", "flat", "regex")

#: One raw match: ``(accepting state, bytes consumed when it was reached)``.
RawMatch = tuple[int, int]

#: Payload types a kernel accepts (the combined automaton may hand over
#: slices of reassembled TCP streams as memoryviews).
ScanData = "bytes | bytearray | memoryview"


@dataclass
class CombinedScanResult:
    """Raw output of one combined-DFA scan.

    ``raw_matches`` holds ``(accepting state, cnt)`` pairs, where ``cnt`` is
    the number of bytes consumed when the accepting state was reached.  The
    scanner layer (:mod:`repro.core.scanner`) resolves these to per-middlebox
    match lists, applying stopping conditions and stateless pruning.
    """

    raw_matches: list[RawMatch]
    end_state: int
    bytes_scanned: int


@runtime_checkable
class ScanKernel(Protocol):
    """The kernel contract (``tests/test_kernels.py`` keeps implementations on it).

    A kernel is constructed from a combined automaton and exposes exactly
    this surface; every implementation must produce byte-identical results
    (same raw matches, end state and byte count) for the same inputs.
    """

    name: str

    def scan(
        self,
        data: "bytes | bytearray | memoryview",
        active_bitmap: int,
        state: int,
        limit: "int | None",
    ) -> CombinedScanResult:
        """Scan *data* (up to *limit* bytes) from *state*."""
        ...


class ReferenceKernel:
    """The original per-byte Python loops — the executable specification."""

    name = "reference"

    def __init__(self, automaton) -> None:
        self._automaton = automaton

    def scan(self, data, active_bitmap: int, state: int, limit) -> CombinedScanResult:
        """Scan *data* (up to *limit* bytes) from *state*."""
        automaton = self._automaton
        view = data if limit is None or limit >= len(data) else data[:limit]
        raw_matches: list[RawMatch] = []
        append = raw_matches.append
        f = automaton.num_accepting
        bitmaps = automaton._bitmaps
        goto = automaton._goto
        fail = automaton._fail
        root = automaton.root
        cnt = 0
        for byte in view:
            while byte not in goto[state] and state != root:
                state = fail[state]
            state = goto[state].get(byte, root)
            cnt += 1
            if state < f and bitmaps[state] & active_bitmap:
                append((state, cnt))
        return CombinedScanResult(
            raw_matches=raw_matches, end_state=state, bytes_scanned=cnt
        )


def _byte_classes(patterns) -> "tuple[int, bytes | None]":
    """The class count ``k`` and byte -> class ``translate`` table of a
    pattern set.

    Bytes no pattern uses never label a trie edge, so their table columns
    are identical: they share class 0, and the used bytes are classes
    ``1..`` in byte order.  Once 255 byte values are in use merging saves
    nothing: every byte is its own class and the table is None (nothing to
    translate).
    """
    used = sorted(set().union(*patterns))
    if len(used) >= 255:
        return 256, None
    classes = bytearray(256)
    for cls, byte in enumerate(used, 1):
        classes[byte] = cls
    return len(used) + 1, bytes(classes)


def _build_table(automaton, k: int, classes: "bytes | None") -> list:
    """The next-state table: entry ``state * k + cls`` holds ``next * k``.

    The rows are filled breadth-first from the goto/fail tables (a state's
    failure state is always shallower, so its row is complete before the
    state is visited).
    """
    num_states = automaton.num_states
    # byte -> class; the identity when nothing is merged.
    column = range(256) if classes is None else classes
    goto = automaton._goto
    fail = automaton._fail
    root = automaton.root
    delta = [root * k] * (num_states * k)
    queue = deque([root])
    while queue:
        state = queue.popleft()
        row = state * k
        inherited = fail[state] * k  # the root fails to itself: a no-op copy
        delta[row : row + k] = delta[inherited : inherited + k]
        for byte, child in goto[state].items():
            delta[row + column[byte]] = child * k
        queue.extend(goto[state].values())
    return delta


class FlatTableKernel:
    """Contiguous-table DFA steps, specialization-friendly and unrolled.

    One list of ``num_states * k`` entries (``k`` byte classes, see
    :func:`_byte_classes`) is the only transition table: entries are
    pre-multiplied (``next_state * k``) so one step is
    ``state = delta[state + cls]`` with no per-byte multiply, and the accept
    test is a single compare against ``num_accepting * k``.
    """

    name = "flat"

    def __init__(self, automaton) -> None:
        self._bitmaps = automaton._bitmaps
        self._k, self._classes = _byte_classes(automaton._distinct_patterns)
        self._delta = _build_table(automaton, self._k, self._classes)
        self._fk = automaton.num_accepting * self._k

    def _columns(self, view):
        """*view*'s bytes as table columns: their classes."""
        if self._classes is None:
            return view
        if view.__class__ is memoryview:  # the one payload type without translate
            view = view.tobytes()
        return view.translate(self._classes)

    def scan(self, data, active_bitmap: int, state: int, limit) -> CombinedScanResult:
        """Scan *data* (up to *limit* bytes) from *state*."""
        view = data if limit is None or limit >= len(data) else data[:limit]
        view = self._columns(view)
        raw_matches: list[RawMatch] = []
        append = raw_matches.append
        delta = self._delta
        k = self._k
        fk = self._fk
        bitmaps = self._bitmaps
        state *= k
        n = len(view)
        end = (n >> 3) << 3
        cnt = 0
        for b0, b1, b2, b3, b4, b5, b6, b7 in zip(
            view[0:end:8],
            view[1:end:8],
            view[2:end:8],
            view[3:end:8],
            view[4:end:8],
            view[5:end:8],
            view[6:end:8],
            view[7:end:8],
        ):
            state = delta[state + b0]
            if state < fk and bitmaps[state // k] & active_bitmap:
                append((state // k, cnt + 1))
            state = delta[state + b1]
            if state < fk and bitmaps[state // k] & active_bitmap:
                append((state // k, cnt + 2))
            state = delta[state + b2]
            if state < fk and bitmaps[state // k] & active_bitmap:
                append((state // k, cnt + 3))
            state = delta[state + b3]
            if state < fk and bitmaps[state // k] & active_bitmap:
                append((state // k, cnt + 4))
            state = delta[state + b4]
            if state < fk and bitmaps[state // k] & active_bitmap:
                append((state // k, cnt + 5))
            state = delta[state + b5]
            if state < fk and bitmaps[state // k] & active_bitmap:
                append((state // k, cnt + 6))
            state = delta[state + b6]
            if state < fk and bitmaps[state // k] & active_bitmap:
                append((state // k, cnt + 7))
            state = delta[state + b7]
            if state < fk and bitmaps[state // k] & active_bitmap:
                append((state // k, cnt + 8))
            cnt += 8
        for cnt, byte in enumerate(view[end:], end + 1):
            state = delta[state + byte]
            if state < fk and bitmaps[state // k] & active_bitmap:
                append((state // k, cnt))
        return CombinedScanResult(
            raw_matches=raw_matches, end_state=state // k, bytes_scanned=n
        )


def _byte_rarity() -> list:
    """Static per-byte frequency prior for web-ish network traffic.

    Lower score = rarer.  Used to pick each pattern's anchor byte; only the
    relative order matters, and a mediocre choice costs throughput, never
    correctness (the differential tests cover arbitrary pattern bytes).
    """
    score = [8] * 256
    for byte in range(0x80, 0x100):
        score[byte] = 5
    score[0x00] = 20
    score[0x7F] = 8
    for byte in b"\t\n\r":
        score[byte] = 80
    score[0x20] = 95
    for byte in range(ord("a"), ord("z") + 1):
        score[byte] = 90
    for byte in range(ord("A"), ord("Z") + 1):
        score[byte] = 55
    for byte in range(ord("0"), ord("9") + 1):
        score[byte] = 45
    for byte in b"<>/\"'=.:,;-_()&?%+*#@[]{}|^~$!\\`":
        score[byte] = 35
    return score


_BYTE_RARITY = _byte_rarity()


class RegexPrefilterKernel:
    """Rare-byte anchor prefilter; the DFA replays only candidate windows.

    Every distinct literal contributes its rarest byte (by the static
    :data:`_BYTE_RARITY` prior) to one anchor character class.  Any
    occurrence of a pattern therefore contains an anchor byte, so every
    match *end* lies within ``max_pattern_length`` bytes after some anchor
    run found by the single compiled ``[anchors]+`` scanner.  Each merged
    candidate region is replayed through the flat table from the root with
    a ``max_pattern_length - 1`` byte lead-in (the DFA state at any
    position depends only on the preceding ``max_pattern_length`` bytes),
    which reproduces exactly the reference kernel's matches — including
    overlapping and suffix matches, courtesy of the suffix-closed match
    tables.  The scan's end state is replayed over the final window the
    same way.

    A carried (non-root) start state is a suffix of the earlier packets
    that is a pattern prefix, at most ``max_pattern_length`` long, so it can
    only influence match ends inside the first ``max_pattern_length - 1``
    bytes: those are one more region, replayed from the carried state, and
    anchor runs that start inside it merge into it.  ``limit`` cuts the
    slice the whole scheme runs on.

    The regions' measured coverage (lead-ins included) is summed as the
    anchor runs are merged; once it reaches ``1 / _DENSITY_BAIL`` of the
    slice — or at once, when the anchor bytes alone (counted up front with
    a C-level ``translate``) already do — the scan bails out to the flat
    kernel, bounding the worst case, e.g. an anchor-flood attack, at a
    small multiple of flat-kernel cost.  A resumed slice shorter than the
    window is all lead-in and takes the flat kernel too.
    """

    name = "regex"

    #: Bail to the flat kernel when the regions' coverage times this reaches
    #: the slice length (replaying them would cost about a flat scan).
    _DENSITY_BAIL = 2

    def __init__(self, automaton) -> None:
        self._root = automaton.root
        self._bitmaps = automaton._bitmaps
        self._fallback = FlatTableKernel(automaton)
        self._delta = self._fallback._delta
        self._k = self._fallback._k
        self._fk = self._fallback._fk
        self._columns = self._fallback._columns
        patterns = automaton._distinct_patterns
        self._window = max((len(p) for p in patterns), default=0)
        if patterns:
            rarity = _BYTE_RARITY
            anchors = sorted(
                {min(pattern, key=rarity.__getitem__) for pattern in patterns}
            )
            self.anchor_bytes = bytes(anchors)
            self._scanner = re.compile(
                b"[" + b"".join(re.escape(bytes([b])) for b in anchors) + b"]+"
            )
            anchor_set = set(anchors)
            self._non_anchors = bytes(b for b in range(256) if b not in anchor_set)
        else:
            self.anchor_bytes = b""
            self._scanner = None
            self._non_anchors = bytes(range(256))

    def _end_row(self, data) -> int:
        """The (pre-multiplied) state of a root-start scan over all of *data*."""
        start = len(data) - self._window
        if start < 0:
            start = 0
        state = self._root * self._k
        delta = self._delta
        for cls in self._columns(data[start:]):
            state = delta[state + cls]
        return state

    def scan(self, data, active_bitmap: int, state: int, limit) -> CombinedScanResult:
        """Scan *data* (up to *limit* bytes) from *state*."""
        if limit is not None and limit < len(data):
            data = data[:limit]
        n = len(data)
        if self._scanner is None:
            return CombinedScanResult(
                raw_matches=[], end_state=state, bytes_scanned=n
            )
        window = self._window
        lead = window - 1
        # Merged candidate regions: region (lo, hi] holds the match-end
        # positions an anchor run — or the carried state — can account for.
        regions: list[list[int]] = []
        last: "list[int] | None" = None
        covered = 0  # bytes the regions replay, lead-ins included
        if state != self._root:
            if n < window:
                # All lead-in, and _end_row needs `window` bytes of slice.
                return self._fallback.scan(data, active_bitmap, state, None)
            last = [0, lead]
            regions.append(last)
            covered = lead
        if data.__class__ is not bytes:
            data = bytes(data)
        bail = self._DENSITY_BAIL
        anchor_count = len(data.translate(None, self._non_anchors))
        if anchor_count:
            if anchor_count * bail >= n:  # flood guard: coverage >= count
                return self._fallback.scan(data, active_bitmap, state, None)
            for found in self._scanner.finditer(data):
                lo = found.start()
                hi = found.end() - 1 + window
                if last is not None and lo <= last[1]:
                    covered += hi - last[1]  # runs arrive in order: hi grows
                    last[1] = hi
                else:
                    covered += hi - lo + lead
                    last = [lo, hi]
                    regions.append(last)
                if covered * bail >= n:
                    return self._fallback.scan(data, active_bitmap, state, None)
        raw_matches: list[RawMatch] = []
        append = raw_matches.append
        delta = self._delta
        k = self._k
        fk = self._fk
        bitmaps = self._bitmaps
        columns = self._columns
        root_row = self._root * k
        for lo, hi in regions:
            # Only the first region can reach back to byte 0, where the
            # carried state (the root, for a root start) is the true one.
            start = lo - lead
            if start > 0:
                current = root_row
            else:
                start = 0
                current = state * k
            for cls in columns(data[start:lo]):
                current = delta[current + cls]
            for cnt, cls in enumerate(columns(data[lo:hi]), lo + 1):
                current = delta[current + cls]
                if current < fk and bitmaps[current // k] & active_bitmap:
                    append((current // k, cnt))
        return CombinedScanResult(
            raw_matches=raw_matches,
            end_state=self._end_row(data) // k,
            bytes_scanned=n,
        )


_KERNELS: dict[str, type] = {
    ReferenceKernel.name: ReferenceKernel,
    FlatTableKernel.name: FlatTableKernel,
    RegexPrefilterKernel.name: RegexPrefilterKernel,
}


def make_kernel(automaton, name: str) -> ScanKernel:
    """Build the named kernel over *automaton*."""
    try:
        kernel_class = _KERNELS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel {name!r}; expected one of {KERNEL_NAMES}"
        ) from None
    return kernel_class(automaton)


class EngineConfigError(ValueError):
    """An engine option holds a value no scan engine can be built with
    (raised before anything is built)."""
