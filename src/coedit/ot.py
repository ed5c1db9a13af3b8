"""Operational-transformation engine: the four pairwise transformation
rules over position-based insert/delete, written once in pair form
(:func:`xform`, Jupiter's: a concurrent pair is rebased each past the other
in one step), one :func:`fold` of an op past concurrent ones, and the
replicas built on it. An :class:`OtSite` (one of two symmetric peers) or a
:class:`SequencerClient` folds each remote op past its `pending`
unacknowledged local ops; the :class:`SequencerServer` folds each client op
past the entries of that client's bridge the client had not delivered.

A replica's log and the server's bridges follow the ops in flight, not the
session (Nichols et al., UIST 1995). Each replica talks to one other party,
its peer or the server, so it collects its log up to its oldest pending op.
Each replica sends Jupiter's two counters, not a clock: an op's seq, and
the count of messages it has delivered from its other party. A peer drops
the pending ops that count acknowledges; the server cuts a client's bridge
by it, carried by every op and every :class:`Ack` of that client.

Tie-break for two inserts at the same position: the insert from the lower
site id keeps the smaller position. Transforming a delete against a delete
of the same character yields NoOp (the target is already gone).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass, field
from operator import itemgetter

from .metrics import MetricsBundle
from .model import (
    CheckedRecord,
    Delete,
    ExternalOp,
    Insert,
    NoOp,
    SiteId,
    TimestampedOp,
    VectorClock,
    apply_external,
    happened_before,  # unused here; perfbench/tracing.py patches this module's name
)


_new = tuple.__new__  # builds a record without its checks: for rebased ops only
_NOOP = NoOp()
_INDEX = itemgetter(2)  # a bridge entry's stream index

COLLECT_EVERY = 8  # `collect` looks at a log once it has grown by this many ops since the last look


class ContextMismatchError(RuntimeError):
    """A message does not fit the replica's context: it is not its sender's
    next, or it claims a context the replica never had."""


def xform(a: ExternalOp, b: ExternalOp, a_site: SiteId, b_site: SiteId) -> tuple:
    """Rebase a concurrent pair (same context) in one step, as Jupiter's xform:
    returns (`a` past `b`, `b` past `a`), one branch per type pair. An op
    that needs no rebase is returned as it is. A rebased op only moves the
    position of an op that was checked when it was made, so it is built
    without the constructor's check; a target both deleted becomes one
    shared NoOp."""
    ta, tb = type(a), type(b)
    if ta is Insert:
        if tb is Insert:  # at one position, the lower site's insert stays left
            if a.position < b.position or (a.position == b.position and a_site < b_site):
                return a, _new(Insert, (b.position + 1, b.character))
            return _new(Insert, (a.position + 1, a.character)), b
        if tb is Delete:  # an insert at a delete's position stays before it
            if a.position <= b.position:
                return a, _new(Delete, (b.position + 1,))
            return _new(Insert, (a.position - 1, a.character)), b
    elif ta is Delete:
        if tb is Insert:
            if a.position < b.position:
                return a, _new(Insert, (b.position - 1, b.character))
            return _new(Delete, (a.position + 1,)), b
        if tb is Delete:  # a target both deleted is deleted once
            if a.position < b.position:
                return a, _new(Delete, (b.position - 1,))
            if a.position > b.position:
                return _new(Delete, (a.position - 1,)), b
            return _NOOP, _NOOP
    if ta is NoOp or tb is NoOp:
        return a, b
    raise TypeError(f"cannot transform {a!r} against {b!r}")


def transform(a: ExternalOp, b: ExternalOp, a_site: SiteId, b_site: SiteId) -> ExternalOp:
    """Transform `a` to include the effect of concurrent `b` (same context)."""
    return xform(a, b, a_site, b_site)[0]


def fold(metrics: MetricsBundle, op: ExternalOp, origin: SiteId, entries: list) -> ExternalOp:
    """Fold `op` from `origin` past `entries`, concurrent ops in the same
    context held as lists `[op, origin, seq or index]`, and rebase each entry past
    `op` in place. Returns `op` in the context that includes them all; the
    caller counts the entries once the op has executed."""
    tie_seen = metrics.insert_tie_seen
    for entry in entries:
        other = entry[0]
        if not tie_seen and type(op) is Insert and type(other) is Insert and op.position == other.position:
            tie_seen = metrics.insert_tie_seen = True
        op, entry[0] = xform(op, other, origin, entry[1])
    return op


class _Counted(CheckedRecord):
    """An OT op record: op, origin, seq (at least 1) and a count. It carries
    no clock; the class's empty one is what the causal gate and the
    envelope read."""

    __slots__ = ()
    key = TimestampedOp.key
    clock = VectorClock()

    def __new__(cls, op: ExternalOp, origin: SiteId, seq: int, n: int):
        if seq < 1 or n < 0:
            raise ValueError(f"{cls.__name__} needs seq >= 1 and {cls._fields[3]} >= 0, got {seq} and {n}")
        return tuple.__new__(cls, (op, origin, seq, n))


class ClientOp(_Counted, namedtuple("ClientOp", "op origin seq delivered")):
    """A replica's `seq`-th op, made when it had delivered `delivered`
    messages from its one other party: a symmetric peer's op to the other
    peer, or a sequencer client's op to the server."""

    __slots__ = ()


class ServerOpMsg(_Counted, namedtuple("ServerOpMsg", "op origin seq index")):
    """Sequencer -> all clients: `origin`'s `seq`-th op rebased into the
    server's linear history, at stream position `index`."""

    __slots__ = ()


class Ack(namedtuple("Ack", "origin delivered")):
    """Sequencer client -> server: how many stream messages it has delivered."""

    __slots__ = ()


@dataclass
class _Replica:
    """What both OT replicas hold: a mirror of the visible text, the
    `buffer` log of the ops in the form they were executed here, the
    `pending` local ops no remote has acknowledged yet, as entries
    `[op rebased to the current text, site, seq]`, and Jupiter's counters:
    `counts` of each site's ops made or delivered here, updated in place,
    and `delivered`, the messages delivered from the other party.

    No fold reads the log. A replica talks to one other party, its peer or
    the server (Jupiter's two-party rule), so an op it has delivered from
    there can be concurrent with nothing it receives later, and neither can
    a local op once it leaves `pending`: `collect` drops the log up to its
    oldest pending op, and `quiesce` drops the rest by the clocks of every
    site. `collected` counts the ops dropped over the run.
    """

    site: SiteId
    state: str = ""
    buffer: list = field(default_factory=list)
    pending: list = field(default_factory=list)
    metrics: MetricsBundle = field(default_factory=MetricsBundle)
    counts: dict = field(default_factory=dict)  # SiteId -> its ops made or delivered here (never 0), updated in place
    delivered: int = 0  # messages delivered from the other party (a sequencer client's echoes included)
    collected: int = field(default=0, init=False)
    collect_at: int = field(default=COLLECT_EVERY, init=False)  # the log length at which `collect` looks next

    @property
    def clock(self) -> VectorClock:
        """`counts` as a clock, built on request: the causal gate and the
        end-of-run `gc` sweep."""
        return VectorClock._zero_free(dict(self.counts))

    def local(self, eo: ExternalOp) -> ClientOp:
        """Execute, log and hold a local op, stamped with its seq and the
        count of messages delivered; no transformation runs. The visible
        text already shows the edit; the mirror follows here."""
        self.state = apply_external(self.state, eo)
        site = self.site
        seq = self.counts[site] = self.counts.get(site, 0) + 1
        msg = ClientOp(eo, site, seq, self.delivered)
        self.buffer.append(msg)
        self.pending.append([eo, site, seq])
        self.metrics.buffer_length_samples.append(len(self.buffer))
        return msg

    def gc(self, stability: dict) -> int:
        """Drop logged ops that every site's clock in `stability` (a lower
        bound on what it delivered) covers; returns how many."""
        clocks = [c.entries for c in stability.values()]
        keep = [b for b in self.buffer if any(c.get(b.origin, 0) < b.seq for c in clocks)]
        collected = len(self.buffer) - len(keep)
        self.buffer = keep
        self.collected += collected
        return collected

    def collect(self) -> int:
        """Drop the log up to its oldest pending op. It looks once the log
        has grown by COLLECT_EVERY ops, and then at each op it drops and the
        first one it keeps, so it costs O(1) per op. Returns the number of
        ops dropped."""
        buffer = self.buffer
        if len(buffer) < self.collect_at:
            return 0
        n = len(buffer)
        if self.pending:  # the log is stable up to its oldest pending op
            site, first = self.site, self.pending[0][2]
            n = next((k for k, b in enumerate(buffer) if b.seq >= first and b.origin == site), n)
        if n:
            del buffer[:n]
            self.collected += n
        self.collect_at = len(buffer) + COLLECT_EVERY
        return n

    def quiesce(self, stability: dict, created: int, deleted: int) -> tuple:
        self.gc(stability)
        self.metrics.buffer_final = max(self.metrics.buffer_final, len(self.buffer))
        return self.collected, None


@dataclass
class OtSite(_Replica):
    """One of two symmetric OT replicas (the two-site Jupiter protocol).

    With one peer, the ops concurrent with a remote op are exactly the local
    ops the peer had not seen when it sent it: a remote op acknowledges the
    `delivered` pending ops it counts, and is folded past the rest. Larger
    sessions go through the sequencer classes below.
    """

    local = _Replica.local

    def remote(self, msg: ClientOp) -> ExternalOp:
        """Fold the peer's next op past the local ops it had not seen;
        returns the form to replay on the visible text."""
        origin, site, counts = msg.origin, self.site, self.counts
        if origin == site:
            raise ValueError("a site never delivers its own message")
        sent = counts.get(origin, 0)
        if sent != self.delivered:  # another site's ops were delivered here
            raise ContextMismatchError(f"remote {msg.key()} is from a third site: {self.delivered - sent} ops of another peer delivered")
        if msg.seq != sent + 1:  # a duplicate, or a gap before it
            raise ContextMismatchError(f"remote {msg.key()} is not the next op of site {origin}, which sent {sent}")
        seen, made = msg.delivered, counts.get(site, 0)
        if seen > made:  # acking ops never made would drop pending ones unfolded
            raise ContextMismatchError(f"remote {msg.key()} claims {seen} ops of site {site}, which made {made}")
        pending = self.pending  # the acknowledged ops are a prefix of consecutive seqs
        acked = seen - pending[0][2] + 1 if pending else 0
        op = fold(self.metrics, msg.op, origin, pending[acked:] if acked > 0 else pending)
        self.state = apply_external(self.state, op)
        if acked > 0:  # dropped only once the op has executed
            del pending[:acked]
        self.metrics.c_samples.append(len(pending))  # the ops it was folded past
        counts[origin] = msg.seq
        self.delivered += 1
        self.buffer.append(msg if op is msg.op else _new(ClientOp, (op, origin, msg.seq, seen)))
        self.metrics.buffer_length_samples.append(len(self.buffer))
        return op


@dataclass
class SequencerServer:
    """Total-order relay that rebases every client op into one linear history.

    Keeps a per-client bridge of sequenced ops that client may not have
    seen, as entries `[op, origin, stream index]`. A client delivers a prefix
    of the stream, and each op or :class:`Ack` it sends counts that prefix,
    whose entries it cuts from the bridge: an op is folded past the rest
    (rebasing them in place) before being applied and broadcast. Clients then
    only fold server messages past their own pending ops, which keeps
    pairwise transformation sufficient at any site count.
    """

    client_ids: list
    state: str = ""
    history_len: int = 0  # the next stream index
    bridges: dict = field(init=False)  # SiteId -> list of [ExternalOp, origin SiteId, stream index]
    sequenced: dict = field(init=False)  # SiteId -> how many of its ops are sequenced
    metrics: MetricsBundle = field(default_factory=MetricsBundle)

    def __post_init__(self):
        self.bridges = {c: [] for c in self.client_ids}
        self.sequenced = dict.fromkeys(self.client_ids, 0)

    def _seen(self, client: SiteId, delivered: int) -> int:
        """How many entries of `client`'s bridge are in its first `delivered`
        stream messages; a cut beyond the stream would drop unseen ones."""
        if delivered > self.history_len:
            raise ContextMismatchError(f"client {client} claims {delivered} stream messages delivered, of {self.history_len} sent")
        return bisect_left(self.bridges[client], delivered, key=_INDEX)

    def process(self, sender: SiteId, msg: ClientOp) -> ServerOpMsg:
        made = self.sequenced.get(sender)
        if made is None:
            raise ContextMismatchError(f"op {msg.key()} from site {sender}, which is not a client of this server")
        if msg.origin != sender or msg.seq != made + 1:  # a duplicate, a gap or another's op
            raise ContextMismatchError(f"op {msg.key()} from client {sender} is not its next: {made} sequenced")
        bridge = [e[:] for e in self.bridges[sender][self._seen(sender, msg.delivered) :]]  # copies: a refused op rebases none
        op = fold(self.metrics, msg.op, sender, bridge)
        self.state = apply_external(self.state, op)
        self.metrics.c_samples.append(len(bridge))
        self.bridges[sender] = bridge
        self.sequenced[sender] = msg.seq
        index = self.history_len
        self.history_len += 1
        for c in self.client_ids:
            if c != sender:
                self.bridges[c].append([op, sender, index])
        return ServerOpMsg(op, sender, msg.seq, index)

    def ack(self, sender: SiteId, msg: Ack) -> None:
        """Take a client's ack: cut its bridge as its next op would. An ack
        overtaken by a later op or ack of the client cuts nothing more."""
        if sender not in self.bridges:
            raise ContextMismatchError(f"ack from site {sender}, which is not a client of this server")
        if msg.origin != sender:
            raise ContextMismatchError(f"ack of site {msg.origin} from client {sender}")
        del self.bridges[sender][: self._seen(sender, msg.delivered)]


@dataclass
class SequencerClient(_Replica):
    """OT replica speaking to a :class:`SequencerServer`.

    Local ops apply immediately and stay pending until their echo comes back
    in the server stream; every other server op is folded past the pending
    ops (rebasing them), which is the classic client half of server-based OT,
    and logged as the shared ServerOpMsg, or as a fresh one if the fold moved
    it. The server is the client's one party, so its log is collected as an
    OtSite's (see :class:`_Replica`).
    """

    local = _Replica.local

    def remote(self, msg: ServerOpMsg):
        """Handle the next server-stream message; returns the EO_out to replay
        on the visible text, or None when the message is the echo of an own op."""
        if msg.index != self.delivered:
            raise ContextMismatchError(
                f"server stream out of order at site {self.site}: got {msg.index}, expected {self.delivered}"
            )
        origin = msg.origin
        if origin != self.site:
            counts = self.counts
            if msg.seq != counts.get(origin, 0) + 1:  # the stream holds each site's ops in order
                raise ContextMismatchError(f"stream op {msg.key()} at site {self.site} is not the next op of site {origin}, which sent {counts.get(origin, 0)}")
            op = fold(self.metrics, msg.op, origin, self.pending)
            self.state = apply_external(self.state, op)
            self.metrics.c_samples.append(len(self.pending))
            counts[origin] = msg.seq
            self.buffer.append(msg if op is msg.op else _new(ServerOpMsg, (op, origin, msg.seq, msg.index)))
            self.metrics.buffer_length_samples.append(len(self.buffer))
            self.delivered += 1  # only once the op has executed
            return op
        if not self.pending or self.pending[0][2] != msg.seq:
            raise ContextMismatchError(f"echo {msg.key()} at site {self.site} is not of its oldest pending op")
        del self.pending[0]
        self.delivered += 1
        return None
