"""Shared document/operation model: position-based ops, vector clocks, timestamps.

The visible document is a plain Python string; operations are immutable
dataclass values. Everything in this module is pure, so sites on different
threads can share these values freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Union

SiteId = int

# The one code point that is never a document character: WOOT's blocks use it
# to mark a slot that shows nothing.
NUL = "\x00"


class BoundsError(ValueError):
    """Raised when an operation's position falls outside the document."""


class EngineInvariantError(RuntimeError):
    """An engine's own view of the document disagrees with the visible text."""


@dataclass(frozen=True)
class Insert:
    position: int
    character: str

    def __post_init__(self):
        if len(self.character) != 1 or self.character == NUL:
            raise ValueError(f"Insert carries exactly one character other than NUL, got {self.character!r}")


@dataclass(frozen=True)
class Delete:
    position: int


@dataclass(frozen=True)
class NoOp:
    pass


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


def format_op(op: ExternalOp) -> str:
    """Canonical one-line text form: `I <pos> <char>`, `D <pos>`, `N`."""
    if isinstance(op, Insert):
        return f"I {op.position} {op.character}"
    if isinstance(op, Delete):
        return f"D {op.position}"
    if isinstance(op, NoOp):
        return "N"
    raise TypeError(f"not an ExternalOp: {op!r}")


def parse_op(line: str) -> ExternalOp:
    """Inverse of :func:`format_op`."""
    parts = line.split()
    if parts and parts[0] == "I" and len(parts) == 3 and len(parts[2]) == 1:
        return Insert(int(parts[1]), parts[2])
    if parts and parts[0] == "D" and len(parts) == 2:
        return Delete(int(parts[1]))
    if parts == ["N"]:
        return NoOp()
    raise ValueError(f"unparseable operation line: {line!r}")


@dataclass(frozen=True)
class VectorClock:
    """Per-site operation counters; a missing entry means 0."""

    entries: Mapping[SiteId, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "entries", {s: n for s, n in self.entries.items() if n != 0})

    @classmethod
    def _zero_free(cls, entries: dict) -> "VectorClock":
        """A clock over `entries` as they are, without the strip, for callers
        that guarantee no zero count: merge and tick (zero-free inputs, only
        raised) and the wire decoder (which rejects a zero count)."""
        clock = object.__new__(cls)
        object.__setattr__(clock, "entries", entries)
        return clock

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

    def sorted_items(self) -> tuple:
        return tuple(sorted(self.entries.items()))


@dataclass(frozen=True)
class TimestampedOp:
    """An op plus the metadata needed for causal replay: the one wire record
    of every engine. The op is position-based (an ExternalOp, for the OT
    engines) or an identifier op (WOOT's InsertId or DeleteId); the
    sequencer's stream message subclasses it with the op's stream index."""

    op: object
    origin: SiteId
    seq: int
    clock: VectorClock

    def __post_init__(self):
        if self.seq < 1:
            raise ValueError(f"seq must be >= 1, got {self.seq}")
        if self.clock.get(self.origin) != self.seq:
            raise ValueError(f"clock entry for origin {self.origin} must equal seq {self.seq}, got {self.clock.get(self.origin)}")

    def key(self) -> tuple:
        return (self.origin, self.seq)


def happened_before(a: TimestampedOp, b: TimestampedOp) -> bool:
    """Strict happen-before on generation clocks."""
    return a.clock.leq(b.clock) and a.clock != b.clock


def concurrent(a: TimestampedOp, b: TimestampedOp) -> bool:
    return not happened_before(a, b) and not happened_before(b, a)
