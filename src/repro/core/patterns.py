"""Pattern model and the controller's deduplicated global pattern registry.

A middlebox owns a :class:`PatternSet` of :class:`Pattern` objects — exact
byte strings or regular expressions.  The DPI controller merges the sets of
all registered middleboxes into a :class:`GlobalPatternRegistry`, which
assigns internal identifiers and reference-counts which middlebox rules refer
to which canonical pattern (paper Section 4.1): a pattern registered by two
middleboxes is stored once; it disappears only when its last referrer removes
it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator


class PatternKind(enum.Enum):
    """Exact byte-string patterns vs regular expressions."""

    LITERAL = "literal"
    REGEX = "regex"


@dataclass(frozen=True)
class Pattern:
    """One pattern within a middlebox's set.

    ``pattern_id`` is the identifier *within the owning middlebox* — it is
    what the DPI service echoes back in match reports so the middlebox can
    find the rule that referenced the pattern.  ``data`` holds the literal
    bytes for ``LITERAL`` patterns and the regex source (as ``bytes``) for
    ``REGEX`` patterns.
    """

    pattern_id: int
    data: bytes
    kind: PatternKind = PatternKind.LITERAL

    def __post_init__(self) -> None:
        if not isinstance(self.data, bytes):
            raise TypeError(f"pattern data must be bytes, got {type(self.data).__name__}")
        if not self.data:
            raise ValueError("empty pattern")
        if self.pattern_id < 0:
            raise ValueError(f"negative pattern id: {self.pattern_id}")

    @property
    def canonical_key(self) -> "tuple[PatternKind, bytes]":
        """Identity of the pattern *content*, ignoring the local id."""
        return (self.kind, self.data)

    def __len__(self) -> int:
        return len(self.data)


class PatternSet:
    """A named, ordered collection of patterns with unique local ids."""

    def __init__(self, name: str, patterns: "list[Pattern] | None" = None) -> None:
        self.name = name
        self._patterns: dict[int, Pattern] = {}
        for pattern in patterns or []:
            self.add(pattern)

    @classmethod
    def from_literals(cls, name: str, literals: "list[bytes]") -> "PatternSet":
        """Build a set of LITERAL patterns with sequential ids."""
        patterns = [
            Pattern(pattern_id=index, data=data)
            for index, data in enumerate(literals)
        ]
        return cls(name, patterns)

    def add(self, pattern: Pattern) -> None:
        """Add one entry; raises on duplicates."""
        if pattern.pattern_id in self._patterns:
            raise ValueError(
                f"{self.name}: duplicate pattern id {pattern.pattern_id}"
            )
        self._patterns[pattern.pattern_id] = pattern

    def remove(self, pattern_id: int) -> Pattern:
        """Remove one entry; raises KeyError if absent."""
        try:
            return self._patterns.pop(pattern_id)
        except KeyError:
            raise KeyError(f"{self.name}: no pattern with id {pattern_id}") from None

    def get(self, pattern_id: int) -> Pattern:
        """Look up one entry by id."""
        return self._patterns[pattern_id]

    def __len__(self) -> int:
        return len(self._patterns)

    def __iter__(self) -> "Iterator[Pattern]":
        return iter(sorted(self._patterns.values(), key=lambda p: p.pattern_id))

    def __contains__(self, pattern_id: int) -> bool:
        return pattern_id in self._patterns

    @property
    def literals(self) -> "list[Pattern]":
        """The LITERAL patterns, ordered by id."""
        return [p for p in self if p.kind is PatternKind.LITERAL]

    @property
    def regexes(self) -> "list[Pattern]":
        """The REGEX patterns, ordered by id."""
        return [p for p in self if p.kind is PatternKind.REGEX]

    def total_bytes(self) -> int:
        """Size of the raw pattern data — the quantity the paper cites when
        arguing that shipping pattern sets to the controller is cheap."""
        return sum(len(p) for p in self)


@dataclass
class _RegistryEntry:
    """A canonical pattern plus every (middlebox, local id) that refers to it."""

    internal_id: int
    kind: PatternKind
    data: bytes
    #: ``{(middlebox_id, pattern_id)}`` pairs referring to this entry.
    referrers: set[tuple[int, int]] = field(default_factory=set)


class GlobalPatternRegistry:
    """The controller's deduplicated pattern store (Section 4.1).

    Internal ids are dense and stable for the lifetime of the entry; removing
    the last referrer frees the entry (the id is not reused, which keeps
    already-distributed instance configurations unambiguous).
    """

    def __init__(self) -> None:
        self._by_key: dict[tuple[PatternKind, bytes], _RegistryEntry] = {}
        self._by_id: dict[int, _RegistryEntry] = {}
        self._next_id = 0

    def __len__(self) -> int:
        return len(self._by_id)

    def add(self, middlebox_id: int, pattern: Pattern) -> int:
        """Register a referrer; returns the canonical internal id."""
        key = pattern.canonical_key
        entry = self._by_key.get(key)
        if entry is None:
            entry = _RegistryEntry(
                internal_id=self._next_id, kind=pattern.kind, data=pattern.data
            )
            self._next_id += 1
            self._by_key[key] = entry
            self._by_id[entry.internal_id] = entry
        entry.referrers.add((middlebox_id, pattern.pattern_id))
        return entry.internal_id

    def remove(self, middlebox_id: int, pattern: Pattern) -> bool:
        """Drop one referrer; returns True if the entry was freed entirely."""
        key = pattern.canonical_key
        entry = self._by_key.get(key)
        if entry is None:
            raise KeyError(f"pattern not registered: {pattern.data!r}")
        try:
            entry.referrers.remove((middlebox_id, pattern.pattern_id))
        except KeyError:
            raise KeyError(
                f"middlebox {middlebox_id} does not refer to pattern "
                f"{pattern.pattern_id}"
            ) from None
        if not entry.referrers:
            del self._by_key[key]
            del self._by_id[entry.internal_id]
            return True
        return False

    def remove_middlebox(self, middlebox_id: int) -> int:
        """Drop every referrer of *middlebox_id*; returns entries freed."""
        freed = 0
        for key in list(self._by_key):
            entry = self._by_key[key]
            entry.referrers = {  # rebuilds a set: order-independent
                ref for ref in entry.referrers if ref[0] != middlebox_id
            }
            if not entry.referrers:
                del self._by_key[key]
                del self._by_id[entry.internal_id]
                freed += 1
        return freed

    def referrers_of(self, internal_id: int) -> "list[tuple[int, int]]":
        """Sorted (middlebox id, pattern id) pairs for one canonical pattern."""
        return sorted(self._by_id[internal_id].referrers)

    def entries(self) -> "list[_RegistryEntry]":
        """Every registry entry, ordered by internal id."""
        return [self._by_id[i] for i in sorted(self._by_id)]

    def pattern_sets_by_middlebox(self) -> "dict[int, PatternSet]":
        """Reconstruct each middlebox's current pattern set."""
        sets: dict[int, PatternSet] = {}
        for entry in self._by_id.values():
            # Sorted: referrers is a set, and the reconstruction order
            # decides both the returned dict's key order and which
            # duplicate-id collision would surface first.
            for middlebox_id, pattern_id in sorted(entry.referrers):
                target = sets.setdefault(
                    middlebox_id, PatternSet(name=f"middlebox-{middlebox_id}")
                )
                target.add(
                    Pattern(pattern_id=pattern_id, data=entry.data, kind=entry.kind)
                )
        return sets
