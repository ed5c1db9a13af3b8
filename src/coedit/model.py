"""Shared document/operation model: position-based ops, vector clocks, timestamps.

The visible document is a plain Python string. Ops, clocks and timestamps
are immutable tuple records: a `namedtuple` with no instance dict, whose
`__new__` checks the fields, as do `_make` and `_replace`. Everything in
this module is pure, so sites on different threads can share these values
freely.

Being tuples, the records compare as tuples, so a record equals a plain
tuple of its fields (`Delete(3) == (3,)`), and `NoOp()` is falsy; ask an op
for its type, not its truth.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Mapping, Union

SiteId = int

# The one code point that is never a document character: WOOT's blocks use it
# to mark a slot that shows nothing.
NUL = "\x00"


class BoundsError(ValueError):
    """Raised when an operation's position falls outside the document."""


class EngineInvariantError(RuntimeError):
    """An engine's own view of the document disagrees with the visible text."""


class CheckedRecord:
    """Mixin for a checking tuple record: `_make` (and so `_replace`, which
    calls it) goes through the record's checking `__new__`, which a plain
    namedtuple's `_make` skips."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Insert(CheckedRecord, namedtuple("Insert", "position character")):
    __slots__ = ()

    def __new__(cls, position: int, character: str):
        if len(character) != 1 or character == NUL:
            raise ValueError(f"Insert carries exactly one character other than NUL, got {character!r}")
        return tuple.__new__(cls, (position, character))


class Delete(namedtuple("Delete", "position")):
    __slots__ = ()


class NoOp(namedtuple("NoOp", ())):
    __slots__ = ()


ExternalOp = Union[Insert, Delete, NoOp]


def apply_external(text: str, op: ExternalOp) -> str:
    """Apply a position-based operation to the visible text."""
    if isinstance(op, NoOp):
        return text
    if isinstance(op, Insert):
        if not 0 <= op.position <= len(text):
            raise BoundsError(f"insert position {op.position} out of range for length {len(text)} ({op})")
        return text[: op.position] + op.character + text[op.position :]
    if isinstance(op, Delete):
        if not 0 <= op.position < len(text):
            raise BoundsError(f"delete position {op.position} out of range for length {len(text)} ({op})")
        return text[: op.position] + text[op.position + 1 :]
    raise TypeError(f"not an ExternalOp: {op!r}")


def escape_text(text: str) -> str:
    """Text as one ASCII token with no whitespace: Python string escapes and
    \\x20 for a space; a letter or a digit stays as it is."""
    if text.isalnum() and text.isascii():  # the common case: nothing to escape
        return text
    return text.encode("unicode_escape").decode("ascii").replace(" ", "\\x20")


def unescape_text(token: str) -> str:
    """Inverse of :func:`escape_text`; a bad escape raises UnicodeDecodeError,
    a ValueError."""
    return token.encode("ascii", "backslashreplace").decode("unicode_escape")


def format_op(op: ExternalOp) -> str:
    """Canonical one-line text form: `I <pos> <char>` (the character
    escaped, see :func:`escape_text`), `D <pos>`, `N`."""
    if isinstance(op, Insert):
        return f"I {op.position} {escape_text(op.character)}"
    if isinstance(op, Delete):
        return f"D {op.position}"
    if isinstance(op, NoOp):
        return "N"
    raise TypeError(f"not an ExternalOp: {op!r}")


def parse_op(line: str) -> ExternalOp:
    """Inverse of :func:`format_op`; raises ValueError on a malformed line."""
    parts = line.split()
    if parts and parts[0] == "I" and len(parts) == 3:  # Insert checks the character
        return Insert(int(parts[1]), unescape_text(parts[2]))
    if parts and parts[0] == "D" and len(parts) == 2:
        return Delete(int(parts[1]))
    if parts == ["N"]:
        return NoOp()
    raise ValueError(f"unparseable operation line: {line!r}")


class VectorClock(CheckedRecord, namedtuple("VectorClock", "entries")):
    """Per-site operation counters; a missing entry means 0. The constructor
    drops zero counts, so each clock has one set of entries."""

    __slots__ = ()

    def __new__(cls, entries: Mapping[SiteId, int] = {}):  # the default is only read
        return tuple.__new__(cls, ({s: n for s, n in entries.items() if n != 0},))

    @classmethod
    def _zero_free(cls, entries: dict) -> "VectorClock":
        """A clock over `entries` as they are, without the strip, for callers
        that guarantee no zero count: merge and tick (zero-free inputs, only
        raised) and the wire decoder (which rejects a zero count)."""
        return tuple.__new__(cls, (entries,))

    def get(self, site: SiteId) -> int:
        return self.entries.get(site, 0)

    def leq(self, other: "VectorClock") -> bool:
        return all(n <= other.get(s) for s, n in self.entries.items())

    def merge(self, other: "VectorClock") -> "VectorClock":
        merged = dict(self.entries)
        for s, n in other.entries.items():
            if n > merged.get(s, 0):
                merged[s] = n
        return VectorClock._zero_free(merged)

    def tick(self, site: SiteId) -> "VectorClock":
        bumped = dict(self.entries)
        bumped[site] = bumped.get(site, 0) + 1
        return VectorClock._zero_free(bumped)

    def __hash__(self):
        return hash(frozenset(self.entries.items()))


class TimestampedOp(CheckedRecord, namedtuple("TimestampedOp", "op origin seq clock")):
    """An op plus the metadata needed for causal replay: the wire record of a
    WOOT op (an InsertId or DeleteId). The OT records (`ot.ClientOp`,
    `ot.ServerOpMsg`) carry Jupiter's counters in place of the clock."""

    __slots__ = ()

    def __new__(cls, op: object, origin: SiteId, seq: int, clock: VectorClock):
        if seq < 1:
            raise ValueError(f"seq must be >= 1, got {seq}")
        if clock.entries.get(origin) != seq:  # the stamp every message of an op carries
            raise ValueError(f"clock entry for origin {origin} must equal seq {seq}, got {clock.get(origin)}")
        return tuple.__new__(cls, (op, origin, seq, clock))

    def key(self) -> tuple:
        return (self.origin, self.seq)


def happened_before(a: TimestampedOp, b: TimestampedOp) -> bool:
    """Strict happen-before on generation clocks."""
    return a.clock.leq(b.clock) and a.clock != b.clock


def concurrent(a: TimestampedOp, b: TimestampedOp) -> bool:
    return not happened_before(a, b) and not happened_before(b, a)
