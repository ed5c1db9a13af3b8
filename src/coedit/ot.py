"""Operational-transformation engine: the four pairwise transformation
rules over position-based insert/delete, written once in pair form
(:func:`xform`, Jupiter's: a concurrent pair is rebased each past the other
in one step), one :func:`fold` of an op past concurrent ones, and the
replicas built on it. An :class:`OtSite` (one of two symmetric peers) or a
:class:`SequencerClient` folds each remote op past its `pending`
unacknowledged local ops; the :class:`SequencerServer` folds each client op
past that client's bridge.

Tie-break for two inserts at the same position: the insert from the lower
site id keeps the smaller position. Transforming a delete against a delete
of the same character yields NoOp (the target is already gone).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import (
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


class ContextMismatchError(RuntimeError):
    """A message does not fit the replica's context: it is not its sender's
    next, or it claims a context the replica never had."""


def xform(a: ExternalOp, b: ExternalOp, a_site: SiteId, b_site: SiteId) -> tuple:
    """Rebase a concurrent pair (same context) in one step, as Jupiter's xform:
    returns (`a` past `b`, `b` past `a`), one branch per type pair. An op
    that needs no rebase is returned as it is."""
    ta, tb = type(a), type(b)
    if ta is Insert:
        if tb is Insert:  # at one position, the lower site's insert stays left
            if a.position < b.position or (a.position == b.position and a_site < b_site):
                return a, Insert(b.position + 1, b.character)
            return Insert(a.position + 1, a.character), b
        if tb is Delete:  # an insert at a delete's position stays before it
            if a.position <= b.position:
                return a, Delete(b.position + 1)
            return Insert(a.position - 1, a.character), b
    elif ta is Delete:
        if tb is Insert:
            if a.position < b.position:
                return a, Insert(b.position - 1, b.character)
            return Delete(a.position + 1), b
        if tb is Delete:  # a target both deleted is deleted once
            if a.position < b.position:
                return a, Delete(b.position - 1)
            if a.position > b.position:
                return Delete(a.position - 1), b
            return NoOp(), NoOp()
    if ta is NoOp or tb is NoOp:
        return a, b
    raise TypeError(f"cannot transform {a!r} against {b!r}")


def transform(a: ExternalOp, b: ExternalOp, a_site: SiteId, b_site: SiteId) -> ExternalOp:
    """Transform `a` to include the effect of concurrent `b` (same context)."""
    return xform(a, b, a_site, b_site)[0]


@dataclass
class OtMetrics:
    transform_count: int = 0
    concurrent_set_sizes: list = field(default_factory=list)
    buffer_length_samples: list = field(default_factory=list)
    insert_tie_seen: bool = False  # two inserts at one position were folded

    def fold_into(self, bundle) -> None:
        bundle.c_samples.extend(self.concurrent_set_sizes)
        bundle.transform_total += self.transform_count
        bundle.insert_tie_seen |= self.insert_tie_seen


def fold(metrics: OtMetrics, op: ExternalOp, origin: SiteId, entries: list) -> ExternalOp:
    """Fold `op` from `origin` past `entries`, concurrent ops in the same
    context held as lists `[op, origin, ...]`, and rebase each entry past
    `op` in place. Returns `op` in the context that includes them all."""
    tie_seen = metrics.insert_tie_seen
    for entry in entries:
        other = entry[0]
        if not tie_seen and type(op) is Insert and type(other) is Insert and op.position == other.position:
            tie_seen = metrics.insert_tie_seen = True
        op, entry[0] = xform(op, other, origin, entry[1])
    metrics.transform_count += len(entries)
    metrics.concurrent_set_sizes.append(len(entries))
    return op


@dataclass
class _Replica:
    """What both OT replicas hold: a mirror of the visible text, a clock,
    the `buffer` log of every op in the form it was executed here, and the
    `pending` local ops no remote has acknowledged yet, as entries
    `[op rebased to the current text, site, its message]`."""

    site: SiteId
    state: str = ""
    clock: VectorClock = field(default_factory=VectorClock)
    buffer: list = field(default_factory=list)
    pending: list = field(default_factory=list)
    metrics: OtMetrics = field(default_factory=OtMetrics)

    def _stamp(self, eo: ExternalOp, message: type, *extra) -> TimestampedOp:
        """Execute, timestamp, log and hold a local op as one `message` (a
        TimestampedOp or a subclass, given its `extra` fields); no
        transformation runs. The visible text already shows the edit; the
        mirror follows here."""
        self.state = apply_external(self.state, eo)
        self.clock = self.clock.tick(self.site)
        msg = message(eo, self.site, self.clock.get(self.site), self.clock, *extra)
        self.buffer.append(msg)
        self.pending.append([eo, self.site, msg])
        self.metrics.buffer_length_samples.append(len(self.buffer))
        return msg

    def gc(self, stability: dict) -> int:
        """Drop logged ops already delivered everywhere per gossiped clocks.

        `stability` maps every site id to a lower bound on that site's
        delivered clock. Returns the number of ops collected.
        """
        floor = {o: min(clk.get(o) for clk in stability.values()) for o in {b.origin for b in self.buffer}}
        keep = [b for b in self.buffer if b.seq > floor[b.origin]]
        collected = len(self.buffer) - len(keep)
        self.buffer = keep
        return collected

    def quiesce(self, stability: dict, created: int, deleted: int) -> tuple:
        return self.gc(stability), None

    def fold_metrics(self, bundle) -> None:
        self.metrics.fold_into(bundle)
        bundle.buffer_final = max(bundle.buffer_final, len(self.buffer))


@dataclass
class OtSite(_Replica):
    """One of two symmetric OT replicas (the two-site Jupiter protocol).

    With one peer, the ops concurrent with a remote op are exactly the local
    ops the peer had not seen when it sent it: a remote op acknowledges the
    pending ops its clock covers, and is folded past the rest. Larger
    sessions go through the sequencer classes below.
    """

    def local(self, eo: ExternalOp) -> TimestampedOp:
        return self._stamp(eo, TimestampedOp)

    def remote(self, remote_op: TimestampedOp) -> ExternalOp:
        """Fold the peer's next op past the local ops it had not seen;
        returns the form to replay on the visible text."""
        origin = remote_op.origin
        if origin == self.site:
            raise ValueError("a site never delivers its own message")
        if remote_op.seq != self.clock.get(origin) + 1:  # a duplicate, or a gap before it
            raise ContextMismatchError(f"remote {remote_op.key()} is not the next op of site {origin}, which sent {self.clock.get(origin)}")
        if not remote_op.clock.entries.keys() <= {self.site, origin}:
            raise ContextMismatchError(f"remote {remote_op.key()} names a third site: {remote_op.clock}")
        seen = remote_op.clock.get(self.site)
        if seen > self.clock.get(self.site):  # acking ops never made would drop pending ones unfolded
            raise ContextMismatchError(f"remote {remote_op.key()} claims {seen} ops of site {self.site}, which made {self.clock.get(self.site)}")
        pending = self.pending  # the acknowledged ops are a prefix of consecutive seqs
        if pending and pending[0][2].seq <= seen:
            del pending[: seen - pending[0][2].seq + 1]
        op = fold(self.metrics, remote_op.op, origin, pending)
        self.state = apply_external(self.state, op)
        self.clock = self.clock.tick(origin)  # the merge of the two clocks, as the checks above pin it
        # an op no pending op moved is logged as its message, which equals its record
        self.buffer.append(remote_op if op is remote_op.op else TimestampedOp(op, origin, remote_op.seq, remote_op.clock))
        self.metrics.buffer_length_samples.append(len(self.buffer))
        return op


@dataclass(frozen=True)
class ClientOpMsg(TimestampedOp):
    """Client -> sequencer: a stamped op plus how much of the server stream it saw."""

    seen: int


@dataclass(frozen=True)
class ServerOpMsg(TimestampedOp):
    """Sequencer -> all clients: the op rebased into the server's linear
    history, at stream position `index`."""

    index: int


@dataclass
class SequencerServer:
    """Total-order relay that rebases every client op into one linear history.

    Keeps a per-client bridge of sequenced ops that client has not yet seen;
    an incoming client op is folded through its bridge (rebasing the bridge
    entries in the process) before being applied and broadcast. Clients then
    only need to fold server messages against their own pending local ops,
    which keeps pairwise transformation sufficient at any site count.
    """

    client_ids: list
    state: str = ""
    history_len: int = 0
    bridges: dict = field(init=False)  # SiteId -> list of [ExternalOp, origin SiteId, index]
    sequenced: dict = field(init=False, default_factory=dict)  # SiteId -> how many of its ops are sequenced
    metrics: OtMetrics = field(default_factory=OtMetrics)

    def __post_init__(self):
        self.bridges = {c: [] for c in self.client_ids}

    def process(self, sender: SiteId, msg: ClientOpMsg) -> ServerOpMsg:
        if msg.origin != sender or msg.seq != self.sequenced.get(sender, 0) + 1:  # a duplicate, a gap or another's op
            raise ContextMismatchError(f"op {msg.key()} from client {sender} is not its next: {self.sequenced.get(sender, 0)} sequenced")
        if msg.seen > self.history_len:  # a bridge cut there would drop ops the client never saw
            raise ContextMismatchError(f"client {sender} claims {msg.seen} of {self.history_len} sequenced ops")
        bridge = [e[:] for e in self.bridges[sender] if e[2] >= msg.seen]  # copies: a refused op rebases none
        op = fold(self.metrics, msg.op, msg.origin, bridge)
        self.state = apply_external(self.state, op)
        self.bridges[sender] = bridge
        self.sequenced[sender] = msg.seq
        index = self.history_len
        self.history_len += 1
        for c in self.client_ids:
            if c != sender:
                self.bridges[c].append([op, msg.origin, index])
        return ServerOpMsg(op, msg.origin, msg.seq, msg.clock, index)

    def fold_metrics(self, bundle) -> None:
        self.metrics.fold_into(bundle)


@dataclass
class SequencerClient(_Replica):
    """OT replica speaking to a :class:`SequencerServer`.

    Local ops apply immediately and stay pending until their echo comes back
    in the server stream; every other server op is folded past the pending
    ops (rebasing them), which is the classic client half of server-based OT.
    Each executed server op is logged as a fresh TimestampedOp: logging the
    shared ServerOpMsg itself read faster remote ops but slower local ones
    in paired benchmark runs.
    """

    delivered: int = 0

    def local(self, eo: ExternalOp) -> ClientOpMsg:
        return self._stamp(eo, ClientOpMsg, self.delivered)

    def remote(self, msg: ServerOpMsg):
        """Handle the next server-stream message; returns the EO_out to replay
        on the visible text, or None when the message is the echo of an own op."""
        if msg.index != self.delivered:
            raise ContextMismatchError(
                f"server stream out of order at site {self.site}: got {msg.index}, expected {self.delivered}"
            )
        if msg.origin != self.site:
            op = fold(self.metrics, msg.op, msg.origin, self.pending)
            self.state = apply_external(self.state, op)
            self.clock = self.clock.merge(msg.clock)
            self.buffer.append(TimestampedOp(op, msg.origin, msg.seq, msg.clock))
            self.metrics.buffer_length_samples.append(len(self.buffer))
            self.delivered += 1  # only once the op has executed
            return op
        if not self.pending or self.pending[0][2].key() != msg.key():
            raise ContextMismatchError(f"echo {msg.key()} at site {self.site} is not of its oldest pending op")
        del self.pending[0]
        self.delivered += 1
        return None
