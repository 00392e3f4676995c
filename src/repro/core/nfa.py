"""A Thompson-NFA regular-expression engine.

The paper (Sections 2.2, 3, 5.3) discusses the two classic regex-matching
approaches for DPI — DFA (fast, memory-hungry, prone to state explosion
when expressions are combined) and NFA (compact, slower) — and prescribes
an NFA-style engine run *in parallel* to string matching for expressions
with no usable anchors.  This module implements that engine from scratch:

* a recursive-descent parser for the byte-regex subset DPI rules use
  (literals, escapes, ``.``, character classes with ranges and negation,
  alternation, groups, ``? * + {m,n}`` quantifiers — greedy or lazy);
* Thompson construction into an epsilon-NFA;
* multi-start set simulation with **DPI match semantics**: the engine
  reports every *end offset* at which some (non-empty) match ends — the
  same convention the string matchers use, so results merge directly into
  match reports.

Unsupported (raise ``RegexSyntaxError``): backreferences, lookarounds and
the ``^``/``$`` anchors — none of which fit the streaming-ends model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

#: Cap on counted-repeat expansion, so {1000} cannot blow up construction.
MAX_COUNTED_REPEATS = 64

_ALL_BYTES = frozenset(range(256))
_DIGITS = frozenset(range(0x30, 0x3A))
_WORD = frozenset(
    list(range(0x30, 0x3A))
    + list(range(0x41, 0x5B))
    + list(range(0x61, 0x7B))
    + [0x5F]
)
_SPACE = frozenset(b" \t\n\r\x0b\x0c")

_ESCAPE_CLASSES = {
    ord("d"): _DIGITS,
    ord("D"): _ALL_BYTES - _DIGITS,
    ord("w"): _WORD,
    ord("W"): _ALL_BYTES - _WORD,
    ord("s"): _SPACE,
    ord("S"): _ALL_BYTES - _SPACE,
}
_ESCAPE_LITERALS = {
    ord("n"): 0x0A,
    ord("r"): 0x0D,
    ord("t"): 0x09,
    ord("f"): 0x0C,
    ord("v"): 0x0B,
    ord("a"): 0x07,
    ord("0"): 0x00,
}


class RegexSyntaxError(ValueError):
    """Raised for malformed or unsupported expressions."""


# --- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class _Literal:
    byte_set: frozenset


@dataclass(frozen=True)
class _Concat:
    parts: tuple


@dataclass(frozen=True)
class _Alternate:
    branches: tuple


@dataclass(frozen=True)
class _Repeat:
    node: object
    minimum: int
    maximum: int | None  # None = unbounded


class _Parser:
    def __init__(self, source: bytes) -> None:
        self.source = source
        self.position = 0

    def error(self, message: str) -> RegexSyntaxError:
        """A syntax error annotated with the current offset."""
        return RegexSyntaxError(
            f"{message} at offset {self.position} in {self.source!r}"
        )

    def peek(self) -> int | None:
        """The next byte, or None at the end of input."""
        if self.position >= len(self.source):
            return None
        return self.source[self.position]

    def advance(self) -> int:
        """Consume and return the next byte."""
        byte = self.source[self.position]
        self.position += 1
        return byte

    def parse(self):
        """Parse the whole expression; raises on trailing input."""
        node = self.parse_alternation()
        if self.position != len(self.source):
            raise self.error("unexpected ')'")
        return node

    def parse_alternation(self):
        """``branch (| branch)*``."""
        branches = [self.parse_concat()]
        while self.peek() == ord("|"):
            self.advance()
            branches.append(self.parse_concat())
        if len(branches) == 1:
            return branches[0]
        return _Alternate(branches=tuple(branches))

    def parse_concat(self):
        """A sequence of quantified atoms."""
        parts = []
        while True:
            byte = self.peek()
            if byte is None or byte in (ord("|"), ord(")")):
                break
            parts.append(self.parse_quantified())
        if len(parts) == 1:
            return parts[0]
        return _Concat(parts=tuple(parts))

    def parse_quantified(self):
        """One atom with any trailing quantifiers applied."""
        atom = self.parse_atom()
        while True:
            byte = self.peek()
            if byte == ord("?"):
                self.advance()
                self._skip_lazy()
                atom = _Repeat(atom, 0, 1)
            elif byte == ord("*"):
                self.advance()
                self._skip_lazy()
                atom = _Repeat(atom, 0, None)
            elif byte == ord("+"):
                self.advance()
                self._skip_lazy()
                atom = _Repeat(atom, 1, None)
            elif byte == ord("{"):
                atom = _Repeat(atom, *self._parse_braces())
                self._skip_lazy()
            else:
                return atom

    def _skip_lazy(self) -> None:
        # Lazy vs greedy is irrelevant to all-ends semantics.
        if self.peek() == ord("?"):
            self.advance()

    def _parse_braces(self) -> tuple[int, int | None]:
        self.advance()  # consume '{'
        end = self.source.find(b"}", self.position)
        if end == -1:
            raise self.error("unterminated {...}")
        body = self.source[self.position : end]
        self.position = end + 1
        parts = body.split(b",")
        try:
            minimum = int(parts[0]) if parts[0] else 0
            if len(parts) == 1:
                maximum = minimum
            elif len(parts) == 2:
                maximum = int(parts[1]) if parts[1] else None
            else:
                raise ValueError
        except ValueError:
            raise self.error(f"malformed repeat {{{body.decode('latin1')}}}")
        if maximum is not None and maximum < minimum:
            raise self.error("repeat maximum below minimum")
        if minimum > MAX_COUNTED_REPEATS or (
            maximum is not None and maximum > MAX_COUNTED_REPEATS
        ):
            raise self.error(
                f"counted repeat exceeds the {MAX_COUNTED_REPEATS} cap"
            )
        return minimum, maximum

    def parse_atom(self):
        """One literal, class, wildcard, escape or group."""
        byte = self.peek()
        if byte is None:
            raise self.error("dangling quantifier or empty atom")
        if byte == ord("("):
            self.advance()
            self._skip_group_prefix()
            inner = self.parse_alternation()
            if self.peek() != ord(")"):
                raise self.error("unterminated group")
            self.advance()
            return inner
        if byte == ord("["):
            return _Literal(byte_set=self._parse_class())
        if byte == ord("."):
            self.advance()
            return _Literal(byte_set=_ALL_BYTES)
        if byte == ord("\\"):
            return _Literal(byte_set=self._parse_escape())
        if byte in (ord("^"), ord("$")):
            raise self.error("anchors ^/$ are not supported")
        if byte in (ord("*"), ord("+"), ord("?"), ord("{")):
            raise self.error("quantifier with nothing to repeat")
        self.advance()
        return _Literal(byte_set=frozenset([byte]))

    def _skip_group_prefix(self) -> None:
        if self.peek() != ord("?"):
            return
        self.advance()
        nxt = self.peek()
        if nxt == ord(":"):
            self.advance()
            return
        if nxt == ord("P"):
            self.advance()
            if self.peek() != ord("<"):
                raise self.error("unsupported (?P...) construct")
            while self.peek() not in (None, ord(">")):
                self.advance()
            if self.peek() is None:
                raise self.error("unterminated group name")
            self.advance()
            return
        raise self.error("lookarounds and backreference groups are not supported")

    def _parse_escape(self) -> frozenset:
        self.advance()  # consume backslash
        byte = self.peek()
        if byte is None:
            raise self.error("dangling escape")
        self.advance()
        if byte in _ESCAPE_CLASSES:
            return _ESCAPE_CLASSES[byte]
        if byte in _ESCAPE_LITERALS:
            return frozenset([_ESCAPE_LITERALS[byte]])
        if byte == ord("x"):
            digits = self.source[self.position : self.position + 2]
            if len(digits) != 2:
                raise self.error("truncated \\x escape")
            try:
                value = int(digits, 16)
            except ValueError:
                raise self.error("malformed \\x escape")
            self.position += 2
            return frozenset([value])
        if ord("1") <= byte <= ord("9"):
            raise self.error("backreferences are not supported")
        if byte in (ord("b"), ord("B"), ord("A"), ord("Z")):
            raise self.error("zero-width assertions are not supported")
        return frozenset([byte])

    def _parse_class(self) -> frozenset:
        self.advance()  # consume '['
        negated = False
        if self.peek() == ord("^"):
            negated = True
            self.advance()
        members: set[int] = set()
        first = True
        while True:
            byte = self.peek()
            if byte is None:
                raise self.error("unterminated character class")
            if byte == ord("]") and not first:
                self.advance()
                break
            first = False
            if byte == ord("\\"):
                members |= self._parse_escape()
                continue
            self.advance()
            # Range?
            if (
                self.peek() == ord("-")
                and self.position + 1 < len(self.source)
                and self.source[self.position + 1] != ord("]")
            ):
                self.advance()  # '-'
                high = self.advance()
                if high == ord("\\"):
                    self.position -= 1
                    high_set = self._parse_escape()
                    if len(high_set) != 1:
                        raise self.error("class escape cannot end a range")
                    (high,) = high_set
                if high < byte:
                    raise self.error("reversed character range")
                members |= set(range(byte, high + 1))
            else:
                members.add(byte)
        if negated:
            return frozenset(_ALL_BYTES - members)
        return frozenset(members)


# --- Thompson construction ----------------------------------------------------


@dataclass
class _State:
    #: byte-set transition: (byte_set, target) or None
    edge: tuple | None = None
    epsilon: list = field(default_factory=list)


class RegexNFA:
    """A compiled expression with all-ends match semantics."""

    def __init__(self, pattern: bytes):
        if isinstance(pattern, str):
            pattern = pattern.encode()
        self.pattern = pattern
        ast = _Parser(pattern).parse()
        self._states: list[_State] = []
        start, accept = self._build(ast)
        self.start = start
        self.accept = accept
        if self.accept in self._closure({self.start}):
            raise RegexSyntaxError(
                f"expression matches the empty string: {pattern!r}"
            )

    # -- construction --

    def _new_state(self) -> int:
        self._states.append(_State())
        return len(self._states) - 1

    def _build(self, node) -> tuple[int, int]:
        if isinstance(node, _Literal):
            start = self._new_state()
            accept = self._new_state()
            self._states[start].edge = (node.byte_set, accept)
            return start, accept
        if isinstance(node, _Concat):
            if not node.parts:
                start = self._new_state()
                return start, start
            start, accept = self._build(node.parts[0])
            for part in node.parts[1:]:
                nxt_start, nxt_accept = self._build(part)
                self._states[accept].epsilon.append(nxt_start)
                accept = nxt_accept
            return start, accept
        if isinstance(node, _Alternate):
            start = self._new_state()
            accept = self._new_state()
            for branch in node.branches:
                b_start, b_accept = self._build(branch)
                self._states[start].epsilon.append(b_start)
                self._states[b_accept].epsilon.append(accept)
            return start, accept
        if isinstance(node, _Repeat):
            return self._build_repeat(node)
        raise TypeError(f"unknown AST node: {node!r}")

    def _build_repeat(self, node: _Repeat) -> tuple[int, int]:
        minimum, maximum = node.minimum, node.maximum
        start = self._new_state()
        accept = self._new_state()
        previous = start
        # Mandatory copies.
        for _ in range(minimum):
            c_start, c_accept = self._build(node.node)
            self._states[previous].epsilon.append(c_start)
            previous = c_accept
        if maximum is None:
            # Kleene tail: loop one more copy.
            c_start, c_accept = self._build(node.node)
            self._states[previous].epsilon.append(accept)
            self._states[previous].epsilon.append(c_start)
            self._states[c_accept].epsilon.append(c_start)
            self._states[c_accept].epsilon.append(accept)
        else:
            self._states[previous].epsilon.append(accept)
            for _ in range(maximum - minimum):
                c_start, c_accept = self._build(node.node)
                self._states[previous].epsilon.append(c_start)
                self._states[c_accept].epsilon.append(accept)
                previous = c_accept
        return start, accept

    # -- simulation --

    def _closure(self, states: set) -> set:
        stack = list(states)
        seen = set(states)
        while stack:
            state = stack.pop()
            for target in self._states[state].epsilon:
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        return seen

    @property
    def num_states(self) -> int:
        """Number of automaton states."""
        return len(self._states)

    def iter_match_ends(self, data: bytes) -> Iterator[int]:
        """Yield every end offset at which some non-empty match ends."""
        start_closure = frozenset(self._closure({self.start}))
        current: set = set()
        states = self._states
        accept = self.accept
        for position, byte in enumerate(data):
            current |= start_closure  # unanchored: a match may start here
            nxt = set()
            for state in current:
                edge = states[state].edge
                if edge is not None and byte in edge[0]:
                    nxt.add(edge[1])
            current = self._closure(nxt) if nxt else set()
            if accept in current:
                yield position + 1

    def match_ends(self, data: bytes) -> list[int]:
        """End offsets of every (non-empty) match in *data*."""
        return list(self.iter_match_ends(data))

    def search(self, data: bytes) -> bool:
        """True if the expression matches anywhere in *data*."""
        for _ in self.iter_match_ends(data):
            return True
        return False
