"""Uniform site container and wire formats.

A Site owns the visible text and delegates consistency work to an engine
through two calls: loh (local op -> wire message) and roh (wire message ->
position-based op to replay). Every engine plugs in here the same way, so
the harness can run identical scenarios against any of them.

Every wire message is a TimestampedOp, whose origin, seq and clock the
envelope carries. 'W' and 'X' are the payloads of one whose op is an
identifier op (WOOT's InsertId or DeleteId), 'T' of one whose op is
position-based, and 'C' and 'S' of the sequencer's ClientOpMsg and ServerOpMsg.

Wire layout (big-endian, length-prefixed; nothing may follow the payload):
  envelope  = origin u32 | seq u64 | nclock u32 | nclock * (site u32, count u64)
              | payload_len u32 | payload
  payloads  = 'T' op                           symmetric OT op
              'C' seen u64, op                 OT client -> sequencer
              'S' index u64, op                sequencer -> OT clients
              'W' text, id, prev, next         WOOT insert (id = sid i64, seq u64)
              'X' target id                    WOOT delete
  op        = 'I' position u32, text  |  'D' position u32  |  'N'
  text      = len u32 | UTF-8 bytes
Clock entries are sorted by site with no zero count, so each clock has one
encoding. The decoders raise WireFormatError (a ValueError) on a short field,
trailing bytes, an unknown kind, bad UTF-8, a clock entry that is zero or out
of order, a seq below 1 or other than the clock's entry for the origin, a
WOOT insert whose id is not its message's (origin, seq), a WOOT anchor or
delete target outside the message's causal past, or a value the op types
reject.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Protocol

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
    format_op,
)
from .ot import ClientOpMsg, ServerOpMsg
from .woot import END, INIT_SID, START, DeleteId, InsertId, ObjectId

WireMessage = TimestampedOp


def message_meta(msg: WireMessage) -> tuple:
    """(origin, seq, clock) of the op carried by any wire message."""
    return msg.origin, msg.seq, msg.clock


def op_token(op: ExternalOp) -> str:
    """A position-based op as one trace-log token."""
    return format_op(op).replace(" ", "_")


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


def _encode_id(oid: ObjectId) -> bytes:
    return struct.pack(">qQ", oid.sid, oid.seq)


def _decode_id(data: bytes, off: int) -> tuple:
    sid, seq = struct.unpack_from(">qQ", data, off)
    return ObjectId(sid, seq), off + 16


def _check_past(oid: ObjectId, origin: SiteId, seq: int, clock: VectorClock) -> None:
    """An id a WOOT message names is a sentinel, an initial object, or an
    insert that the message's clock covers and that is not the message's own."""
    if oid.sid == INIT_SID or oid == START or oid == END:
        return
    if not 1 <= oid.seq <= clock.get(oid.sid) or oid == (origin, seq):
        raise ValueError(f"id {oid} is outside the message's causal past")


def _encode_text(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack(">I", len(raw)) + raw


def _decode_text(data: bytes, off: int) -> tuple:
    (n,) = struct.unpack_from(">I", data, off)
    off += 4
    return data[off : off + n].decode("utf-8"), off + n


def _encode_op(op: ExternalOp) -> bytes:
    if isinstance(op, Insert):
        return b"I" + struct.pack(">I", op.position) + _encode_text(op.character)
    if isinstance(op, Delete):
        return b"D" + struct.pack(">I", op.position)
    if isinstance(op, NoOp):
        return b"N"
    raise TypeError(f"not an ExternalOp: {op!r}")


def _decode_op(data: bytes, off: int) -> tuple:
    kind = data[off : off + 1]
    if kind == b"I":
        (pos,) = struct.unpack_from(">I", data, off + 1)
        char, off = _decode_text(data, off + 5)
        return Insert(pos, char), off
    if kind == b"D":
        (pos,) = struct.unpack_from(">I", data, off + 1)
        return Delete(pos), off + 5
    if kind == b"N":
        return NoOp(), off + 1
    raise WireFormatError(f"unknown op kind {kind!r}")


def encode_payload(msg: WireMessage) -> bytes:
    kind, op = type(msg), msg.op
    if kind is TimestampedOp:
        if type(op) is InsertId:
            return b"W" + _encode_text(op.character) + struct.pack(">qQqQqQ", *op.id, *op.prev, *op.next)
        if type(op) is DeleteId:
            return b"X" + _encode_id(op.target)
        return b"T" + _encode_op(op)
    if kind is ClientOpMsg:
        return b"C" + struct.pack(">Q", msg.seen) + _encode_op(op)
    if kind is ServerOpMsg:
        return b"S" + struct.pack(">Q", msg.index) + _encode_op(op)
    raise TypeError(f"not a wire message: {msg!r}")


def decode_payload(payload: bytes, origin: SiteId, seq: int, clock: VectorClock) -> WireMessage:
    kind, off = payload[:1], 1
    try:
        if kind == b"T":
            op, off = _decode_op(payload, off)
            msg = TimestampedOp(op, origin, seq, clock)
        elif kind == b"C" or kind == b"S":
            (n,) = struct.unpack_from(">Q", payload, off)
            op, off = _decode_op(payload, off + 8)
            msg = (ClientOpMsg if kind == b"C" else ServerOpMsg)(op, origin, seq, clock, n)
        elif kind == b"W":
            char, off = _decode_text(payload, off)
            oid, off = _decode_id(payload, off)
            if oid != (origin, seq):  # a site mints each insert's id from its own stamp
                raise ValueError(f"insert id {oid} is not the message's {origin}.{seq}")
            prev, off = _decode_id(payload, off)
            nxt, off = _decode_id(payload, off)
            _check_past(prev, origin, seq, clock)
            _check_past(nxt, origin, seq, clock)
            msg = TimestampedOp(InsertId(char, oid, prev, nxt), origin, seq, clock)
        elif kind == b"X":
            target, off = _decode_id(payload, off)
            _check_past(target, origin, seq, clock)
            msg = TimestampedOp(DeleteId(target), origin, seq, clock)
        else:
            raise WireFormatError(f"unknown payload kind {kind!r}")
    except (struct.error, ValueError) as exc:  # a short field, bad UTF-8, or a value the message types reject
        raise WireFormatError(f"malformed {kind!r} payload: {exc}") from exc
    if off != len(payload):  # trailing bytes, or a text running past the end
        raise WireFormatError(f"{kind!r} fields end at byte {off} of a {len(payload)}-byte payload")
    return msg


def encode_envelope(origin: SiteId, seq: int, clock: VectorClock, payload: bytes) -> bytes:
    items = clock.sorted_items()
    head = struct.pack(">IQI", origin, seq, len(items))
    body = b"".join(struct.pack(">IQ", s, n) for s, n in items)
    return head + body + struct.pack(">I", len(payload)) + payload


def decode_envelope(data: bytes) -> tuple:
    try:
        origin, seq, nclock = struct.unpack_from(">IQI", data, 0)
        off = 16
        entries = {}
        last = -1
        for _ in range(nclock):
            s, n = struct.unpack_from(">IQ", data, off)
            if n == 0 or s <= last:
                raise WireFormatError(f"clock entry ({s}, {n}) is zero or out of order")
            entries[s] = n
            last = s
            off += 12
        (plen,) = struct.unpack_from(">I", data, off)
    except struct.error as exc:
        raise WireFormatError(f"short envelope: {exc}") from exc
    off += 4
    if off + plen != len(data):
        raise WireFormatError(f"payload length {plen}, but {len(data) - off} bytes follow")
    return origin, seq, VectorClock._zero_free(entries), data[off:]


def encode_message(msg: WireMessage) -> bytes:
    origin, seq, clock = message_meta(msg)
    return encode_envelope(origin, seq, clock, encode_payload(msg))


def decode_message(data: bytes) -> WireMessage:
    origin, seq, clock, payload = decode_envelope(data)
    return decode_payload(payload, origin, seq, clock)


# ---------------------------------------------------------------------------
# site container


class Engine(Protocol):
    """What a Site and the harness need of an engine. `remote` returns None
    when there is nothing to replay, and rejects a message from the engine's
    own site. `quiesce` ends a run: given each site's delivered clock and the
    counts of character instances created and (distinct) deleted, it checks
    its own state and returns (ops collected or None, dump or None); dumps
    must match across replicas. `fold_metrics` then adds the replica's cost
    counters to the run's one MetricsBundle, which every replica (and a
    sequencer server) folds into in turn."""

    state: str  # the engine's view of the text: its own copy (OT), a scan of its sequence (WOOT)
    clock: VectorClock  # what it has delivered, for causal gating

    def local(self, eo: ExternalOp) -> WireMessage: ...
    def remote(self, msg: WireMessage) -> Optional[ExternalOp]: ...
    def fold_metrics(self, bundle) -> None: ...
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
