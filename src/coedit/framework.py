"""Uniform site container and wire formats.

A Site owns the visible text and delegates consistency work to an engine
through two calls: loh (local op -> wire message) and roh (wire message ->
position-based op to replay). Every engine plugs in here the same way, so
the harness can run identical scenarios against any of them.

Wire layout (big-endian, length-prefixed; nothing may follow the payload):
  envelope  = head | nclock * (site u32, count u64) | payload_len u32 | payload
  head      = origin u32 | seq u64 | nclock u32
  payloads  = 'C' delivered u64, op            ClientOp: OT peer -> peer, OT client -> sequencer
              'S' index u64, op                ServerOpMsg: sequencer -> OT clients
              'A'                              Ack: seq is the client's delivered count
              'W' text, id, prev, next         TimestampedOp: WOOT insert (id = sid i64, seq u64)
              'X' target id                    TimestampedOp: WOOT delete
  op        = 'I' position u32, text  |  'D' position u32  |  'N'
  text      = len u32 | UTF-8 bytes
Clock entries are sorted by site with no zero count, so each clock has one
encoding; the OT kinds carry none. Each run of fixed fields is one precompiled
struct: an OT kind's message packs in one call (but for an insert's text), and
a decoder reads every message in place by offset. The decoders raise
WireFormatError (a ValueError) on a short field, trailing bytes, an unknown
kind, bad UTF-8, a clock entry that is zero or out of order, a clock
on an OT kind, an op's seq below 1 or (on a WOOT kind) other than the clock's
entry for the origin, a WOOT insert whose id is not its message's (origin,
seq), a WOOT anchor or delete target outside the message's causal past, a WOOT
insert that can never run (its prev is END, its next is START, or both anchors
are one id), a WOOT delete of START or END, or a value the op types reject.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Protocol, Union

from .model import (
    Delete,
    EngineInvariantError,
    ExternalOp,
    Insert,
    NoOp,
    SiteId,
    TimestampedOp,
    VectorClock,
    apply_external,
    escape_text,
)
from .metrics import MetricsBundle
from .ot import Ack, ClientOp, ServerOpMsg
from .woot import END, INIT_SID, START, DeleteId, InsertId, ObjectId

WireMessage = Union[TimestampedOp, ClientOp, ServerOpMsg, Ack]
_NO_CLOCK = VectorClock()


def message_meta(msg: WireMessage) -> tuple:
    """(origin, seq, clock) as a message's envelope carries them; an OT
    record's clock is its class's empty one."""
    if type(msg) is Ack:
        return msg.origin, msg.delivered, _NO_CLOCK
    return msg.origin, msg.seq, msg.clock


def op_token(op: ExternalOp) -> str:
    """A position-based op as one trace-log token: `model.format_op`'s text, `_` for each space."""
    if type(op) is Insert:
        return f"I_{op.position}_{escape_text(op.character)}"
    if type(op) is Delete:
        return f"D_{op.position}"
    if type(op) is NoOp:
        return "N"
    raise TypeError(f"not an ExternalOp: {op!r}")


def _id_text(oid: ObjectId) -> str:
    return f"ObjectId(sid={oid.sid},seq={oid.seq})"


def message_text(msg: WireMessage) -> str:
    """The op a message carries, as one trace-log token. A WOOT op is spelled
    field by field in the form the golden digests pin (its record's repr
    with no space), so the records' own reprs may change."""
    op = msg.op
    if type(op) is InsertId:
        char = repr(op.character).replace(" ", "")
        return f"InsertId(character={char},id={_id_text(op.id)},prev={_id_text(op.prev)},next={_id_text(op.next)})"
    if type(op) is DeleteId:
        return f"DeleteId(target={_id_text(op.target)})"
    return op_token(op)


# ---------------------------------------------------------------------------
# serialization


class WireFormatError(ValueError):
    """The bytes are not one well-formed encoded message."""


_HEAD = struct.Struct(">IQI")  # origin, seq, nclock; the clock's entries and the payload length follow
_ENTRY = struct.Struct(">IQ")  # a clock entry: site, count
_LEN = struct.Struct(">I")
# A message with no clock, whole but for an insert's UTF-8 bytes: head, payload
# length, kind, then a counted record's count, op kind, position, text length.
_C_INSERT, _C_DELETE, _C_NOOP, _ACK = (struct.Struct(_HEAD.format + f) for f in ("IcQcII", "IcQcI", "IcQc", "Ic"))
# A WOOT payload: kind, then a text length (the text and _IDS follow: the
# insert's id, prev and next) or a delete's target.
_W, _IDS, _X = struct.Struct(">cI"), struct.Struct(">qQqQqQ"), struct.Struct(">cqQ")


def _check_past(oid: ObjectId, origin: SiteId, seq: int, clock: VectorClock) -> None:
    """An id a WOOT message names is a sentinel, an initial object, or an
    insert that the message's clock covers and that is not the message's own."""
    if oid.sid == INIT_SID or oid == START or oid == END:
        return
    if not 1 <= oid.seq <= clock.get(oid.sid) or oid == (origin, seq):
        raise ValueError(f"id {oid} is outside the message's causal past")


def _read_head(data: bytes) -> tuple:
    """(origin, seq, clock, payload offset) of an envelope whose payload
    length matches the bytes that follow it."""
    try:
        origin, seq, nclock = _HEAD.unpack_from(data)
        off = 16 + 12 * nclock
        entries, last = {}, -1
        for s, n in _ENTRY.iter_unpack(data[16:off]):
            if n == 0 or s <= last:
                raise WireFormatError(f"clock entry ({s}, {n}) is zero or out of order")
            entries[s] = n
            last = s
        (plen,) = _LEN.unpack_from(data, off)
    except struct.error as exc:
        raise WireFormatError(f"short envelope: {exc}") from exc
    off += 4
    if off + plen != len(data):
        raise WireFormatError(f"payload length {plen}, but {len(data) - off} bytes follow")
    return origin, seq, VectorClock._zero_free(entries) if nclock else _NO_CLOCK, off


def encode_envelope(origin: SiteId, seq: int, clock: VectorClock, payload: bytes) -> bytes:
    items = sorted(clock.entries.items())
    head = _HEAD.pack(origin, seq, len(items)) + b"".join([_ENTRY.pack(s, n) for s, n in items])
    return head + _LEN.pack(len(payload)) + payload


def decode_envelope(data: bytes) -> tuple:
    origin, seq, clock, off = _read_head(data)
    return origin, seq, clock, data[off:]


def encode_message(msg: WireMessage) -> bytes:
    kind = type(msg)
    if kind is ClientOp or kind is ServerOpMsg:
        op, origin, seq, n = msg
        tag = b"C" if kind is ClientOp else b"S"
        if type(op) is Insert:
            raw = op.character.encode()
            return _C_INSERT.pack(origin, seq, 0, 18 + len(raw), tag, n, b"I", op.position, len(raw)) + raw
        if type(op) is Delete:
            return _C_DELETE.pack(origin, seq, 0, 14, tag, n, b"D", op.position)
        if type(op) is NoOp:
            return _C_NOOP.pack(origin, seq, 0, 10, tag, n, b"N")
    elif kind is Ack:
        return _ACK.pack(msg.origin, msg.delivered, 0, 1, b"A")
    elif kind is TimestampedOp:
        op = msg.op
        if type(op) is InsertId:
            raw = op.character.encode()
            payload = _W.pack(b"W", len(raw)) + raw + _IDS.pack(*op.id, *op.prev, *op.next)
            return encode_envelope(msg.origin, msg.seq, msg.clock, payload)
        if type(op) is DeleteId:
            return encode_envelope(msg.origin, msg.seq, msg.clock, _X.pack(b"X", *op.target))
    raise TypeError(f"not a wire message: {msg!r}")


def decode_message(data: bytes) -> WireMessage:
    """The message `data` encodes, its payload read in place by the structs that pack it."""
    origin, seq, clock, start = _read_head(data)
    kind = data[start : start + 1]
    if clock.entries and kind in (b"C", b"S", b"A"):
        raise WireFormatError(f"a {kind!r} message carries no clock, got {clock}")
    try:
        if kind == b"C" or kind == b"S":  # no clock: the message starts as _C_NOOP
            opk = data[_C_NOOP.size - 1 : _C_NOOP.size]
            if opk == b"I":
                n, _, pos, tlen = _C_INSERT.unpack_from(data)[5:]
                off = _C_INSERT.size + tlen
                op = Insert(pos, data[_C_INSERT.size : off].decode())
            elif opk == b"D":
                n, _, pos = _C_DELETE.unpack_from(data)[5:]
                off, op = _C_DELETE.size, Delete(pos)
            elif opk == b"N":
                n, off, op = _C_NOOP.unpack_from(data)[5], _C_NOOP.size, NoOp()
            else:
                raise WireFormatError(f"unknown op kind {opk!r}")
            msg = (ClientOp if kind == b"C" else ServerOpMsg)(op, origin, seq, n)
        elif kind == b"A":
            msg, off = Ack(origin, seq), start + 1
        elif kind == b"W":
            off = start + 53 + _W.unpack_from(data, start)[1]  # past the text and the ids
            ids = _IDS.unpack_from(data, off - 48)
            oid, prev, nxt = ObjectId(*ids[:2]), ObjectId(*ids[2:4]), ObjectId(*ids[4:])
            char = data[start + 5 : off - 48].decode()
            if oid != (origin, seq):  # a site mints each insert's id from its own stamp
                raise ValueError(f"insert id {oid} is not the message's {origin}.{seq}")
            if prev == END or nxt == START or prev == nxt:  # no slot can ever lie between them
                raise ValueError(f"insert anchors {prev} and {nxt} can never enclose a slot")
            _check_past(prev, origin, seq, clock)
            _check_past(nxt, origin, seq, clock)
            msg = TimestampedOp(InsertId(char, oid, prev, nxt), origin, seq, clock)
        elif kind == b"X":
            target = ObjectId(*_X.unpack_from(data, start)[1:])
            off = start + 17
            if target == START or target == END:  # a sentinel is never shown, so never deleted
                raise ValueError(f"delete target {target} is a sentinel")
            _check_past(target, origin, seq, clock)
            msg = TimestampedOp(DeleteId(target), origin, seq, clock)
        else:
            raise WireFormatError(f"unknown payload kind {kind!r}")
    except (struct.error, ValueError) as exc:  # a short field, bad UTF-8, or a value the message types reject
        raise WireFormatError(f"malformed {kind!r} payload: {exc}") from exc
    if off != len(data):  # trailing bytes, or a text running past the end
        raise WireFormatError(f"{kind!r} fields end at byte {off - start} of a {len(data) - start}-byte payload")
    return msg


# ---------------------------------------------------------------------------
# site container


class Engine(Protocol):
    """What a Site and the harness need of an engine. `remote` returns None
    when there is nothing to replay, and rejects a message from the engine's
    own site. `collect` drops what the engine knows every site has
    delivered, at amortized O(1) per op, and returns how much it dropped
    (an engine that keeps no log drops nothing). `quiesce` ends a run: given
    each site's delivered clock and the counts of character instances
    created and (distinct) deleted, it checks its own state, sets its
    end-of-run values in `metrics` and returns (ops collected over the run
    or None, dump or None); dumps must match across replicas."""

    state: str  # the engine's view of the text: its own copy (OT), a scan of its sequence (WOOT)
    clock: VectorClock  # what it has made and delivered: gates causal delivery and feeds the end-of-run sweep
    metrics: MetricsBundle  # the run's one cost record; every replica (and a sequencer server) counts into it

    def local(self, eo: ExternalOp) -> WireMessage: ...
    def remote(self, msg: WireMessage) -> Optional[ExternalOp]: ...
    def collect(self) -> int: ...
    def quiesce(self, stability: dict, created: int, deleted: int) -> tuple: ...


@dataclass
class Site:
    """Visible text plus an engine; enforces the call order of the framework.

    Local path: apply to external, then loh, then hand the message out.
    Remote path: roh, then apply the returned op to external.
    After either, unless the remote returned None (a sequencer echo, or the
    `skip34` ablation), the engine's `state` must equal the visible text.
    """

    id: SiteId
    engine: Engine
    external: str = ""

    def generate(self, eo: ExternalOp) -> WireMessage:
        if isinstance(eo, NoOp):
            raise ValueError("NoOp has no effect and is not propagated")
        self.external = apply_external(self.external, eo)
        msg = self.engine.local(eo)
        self._check_mirror()
        return msg

    def deliver(self, msg: WireMessage) -> Optional[ExternalOp]:
        eo = self.engine.remote(msg)
        if eo is not None:
            self.external = apply_external(self.external, eo)
            self._check_mirror()
        return eo

    def _check_mirror(self) -> None:
        if self.engine.state != self.external:
            raise EngineInvariantError(f"site {self.id}: engine's text {self.engine.state!r} != visible text {self.external!r}")
