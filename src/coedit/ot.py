"""Operational-transformation engine: buffer of timestamped ops plus the four
pairwise transformation functions over position-based insert/delete.

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
    concurrent,
    happened_before,
)


class ContextMismatchError(RuntimeError):
    """A buffered op is neither concurrent with nor causally before a remote op."""


def transform_insert_insert(a: Insert, b: Insert, a_site: SiteId, b_site: SiteId) -> Insert:
    if a.position < b.position or (a.position == b.position and a_site < b_site):
        return a
    return Insert(a.position + 1, a.character)


def transform_insert_delete(a: Insert, b: Delete) -> Insert:
    if a.position <= b.position:
        return a
    return Insert(a.position - 1, a.character)


def transform_delete_insert(a: Delete, b: Insert) -> Delete:
    if a.position < b.position:
        return a
    return Delete(a.position + 1)


def transform_delete_delete(a: Delete, b: Delete) -> ExternalOp:
    if a.position < b.position:
        return a
    if a.position > b.position:
        return Delete(a.position - 1)
    return NoOp()


def transform(a: ExternalOp, b: ExternalOp, a_site: SiteId, b_site: SiteId) -> ExternalOp:
    """Transform `a` to include the effect of concurrent `b` (same context)."""
    if isinstance(a, NoOp) or isinstance(b, NoOp):
        return a
    if isinstance(a, Insert) and isinstance(b, Insert):
        return transform_insert_insert(a, b, a_site, b_site)
    if isinstance(a, Insert) and isinstance(b, Delete):
        return transform_insert_delete(a, b)
    if isinstance(a, Delete) and isinstance(b, Insert):
        return transform_delete_insert(a, b)
    if isinstance(a, Delete) and isinstance(b, Delete):
        return transform_delete_delete(a, b)
    raise TypeError(f"cannot transform {a!r} against {b!r}")


@dataclass
class OtMetrics:
    transform_count: int = 0
    concurrent_set_sizes: list = field(default_factory=list)
    buffer_length_samples: list = field(default_factory=list)
    insert_tie_seen: bool = False

    def note_pair(self, a: ExternalOp, b: ExternalOp) -> None:
        if isinstance(a, Insert) and isinstance(b, Insert) and a.position == b.position:
            self.insert_tie_seen = True

    def fold_into(self, bundle) -> None:
        bundle.c_samples.extend(self.concurrent_set_sizes)
        bundle.transform_total += self.transform_count
        bundle.insert_tie_seen |= self.insert_tie_seen


@dataclass
class OtSite:
    """One symmetric OT replica: mirror of the visible text, clock, op buffer.

    The buffer keeps every op in the form it was executed locally. A parallel
    frontier map keeps each buffered op rebased to the current document
    context, so a new remote op can be folded against the concurrent ones
    pairwise. The symmetric fold is convergent for two replicas; larger
    sessions go through the sequencer classes below.
    """

    site: SiteId
    state: str = ""
    clock: VectorClock = field(default_factory=VectorClock)
    buffer: list = field(default_factory=list)
    frontier: dict = field(default_factory=dict)  # (origin, seq) -> rebased ExternalOp
    metrics: OtMetrics = field(default_factory=OtMetrics)

    def local(self, eo: ExternalOp) -> TimestampedOp:
        """Timestamp and buffer a locally generated op; no transformation runs.

        The visible text already shows the edit; the mirror follows here.
        """
        self.state = apply_external(self.state, eo)
        self.clock = self.clock.tick(self.site)
        stamped = TimestampedOp(eo, self.site, self.clock.get(self.site), self.clock)
        self.buffer.append(stamped)
        self.frontier[stamped.key()] = eo
        self.metrics.buffer_length_samples.append(len(self.buffer))
        return stamped

    def remote(self, remote_op: TimestampedOp) -> ExternalOp:
        """Transform a causally-ready remote op against concurrent buffered ops.

        Returns the position-based form that the caller replays on the
        visible text; the buffer saves that transformed form.
        """
        if remote_op.origin == self.site:
            raise ValueError("a site never delivers its own message")
        op = remote_op.op
        n_concurrent = 0
        for buffered in self.buffer:
            if happened_before(buffered, remote_op):
                continue
            if not concurrent(buffered, remote_op):
                raise ContextMismatchError(
                    f"buffered op {buffered.key()} is causally after remote {remote_op.key()}"
                )
            # Fold both ways: the remote picks up this op's effect, and the
            # frontier form of this op is rebased past the remote so later
            # remotes see a matching context.
            current = self.frontier[buffered.key()]
            self.metrics.note_pair(op, current)
            self.frontier[buffered.key()] = transform(current, op, buffered.origin, remote_op.origin)
            op = transform(op, current, remote_op.origin, buffered.origin)
            self.metrics.transform_count += 1
            n_concurrent += 1
        self.metrics.concurrent_set_sizes.append(n_concurrent)
        self.state = apply_external(self.state, op)
        self.clock = self.clock.merge(remote_op.clock)
        executed = TimestampedOp(op, remote_op.origin, remote_op.seq, remote_op.clock)
        self.buffer.append(executed)
        self.frontier[executed.key()] = op
        self.metrics.buffer_length_samples.append(len(self.buffer))
        return op

    def gc(self, stability: dict) -> int:
        """Drop buffered ops already delivered everywhere per gossiped clocks.

        `stability` maps every site id to a lower bound on that site's
        delivered clock. Returns the number of ops collected.
        """
        keep = [b for b in self.buffer if not all(clk.get(b.origin) >= b.seq for clk in stability.values())]
        collected = len(self.buffer) - len(keep)
        self.buffer = keep
        self.frontier = {b.key(): self.frontier[b.key()] for b in keep}
        return collected

    def fold_metrics(self, bundle, first: bool) -> None:
        self.metrics.fold_into(bundle)
        bundle.buffer_final = max(bundle.buffer_final, len(self.buffer))


class _Carrier:
    """Reads the carried op's fields through, as TimestampedOp has them."""

    op = property(lambda self: self.stamped.op)
    origin = property(lambda self: self.stamped.origin)
    seq = property(lambda self: self.stamped.seq)
    clock = property(lambda self: self.stamped.clock)


@dataclass(frozen=True)
class ClientOpMsg(_Carrier):
    """Client -> sequencer: an op plus how much of the server stream it saw."""

    stamped: TimestampedOp
    seen: int


@dataclass(frozen=True)
class ServerOpMsg(_Carrier):
    """Sequencer -> all clients: the op rebased into the server's linear history."""

    stamped: TimestampedOp
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
    bridges: dict = None  # SiteId -> list of [index, ExternalOp, origin SiteId]
    metrics: OtMetrics = field(default_factory=OtMetrics)

    def __post_init__(self):
        if self.bridges is None:
            self.bridges = {c: [] for c in self.client_ids}

    def process(self, sender: SiteId, msg: ClientOpMsg) -> ServerOpMsg:
        bridge = [e for e in self.bridges[sender] if e[0] >= msg.seen]
        op = msg.stamped.op
        self.metrics.concurrent_set_sizes.append(len(bridge))
        for entry in bridge:
            self.metrics.note_pair(op, entry[1])
            rebased = transform(entry[1], op, entry[2], msg.stamped.origin)
            op = transform(op, entry[1], msg.stamped.origin, entry[2])
            entry[1] = rebased
            self.metrics.transform_count += 1
        self.bridges[sender] = bridge
        self.state = apply_external(self.state, op)
        index = self.history_len
        self.history_len += 1
        server_form = TimestampedOp(op, msg.stamped.origin, msg.stamped.seq, msg.stamped.clock)
        for c in self.client_ids:
            if c != sender:
                self.bridges[c].append([index, op, msg.stamped.origin])
        return ServerOpMsg(server_form, index)

    def fold_metrics(self, bundle, first: bool) -> None:
        self.metrics.fold_into(bundle)


@dataclass
class SequencerClient:
    """OT replica speaking to a :class:`SequencerServer`.

    Local ops apply immediately and wait in `pending` until their echo comes
    back in the server stream; each remote server op is folded through the
    pending list (rebasing it), which is the classic client half of
    server-based OT.
    """

    site: SiteId
    state: str = ""
    clock: VectorClock = field(default_factory=VectorClock)
    buffer: list = field(default_factory=list)
    pending: list = field(default_factory=list)
    delivered: int = 0
    metrics: OtMetrics = field(default_factory=OtMetrics)

    def local(self, eo: ExternalOp) -> ClientOpMsg:
        self.state = apply_external(self.state, eo)
        self.clock = self.clock.tick(self.site)
        stamped = TimestampedOp(eo, self.site, self.clock.get(self.site), self.clock)
        self.buffer.append(stamped)
        self.pending.append(stamped)
        self.metrics.buffer_length_samples.append(len(self.buffer))
        return ClientOpMsg(stamped, self.delivered)

    def remote(self, msg: ServerOpMsg):
        """Handle the next server-stream message; returns the EO_out to replay
        on the visible text, or None when the message is the echo of an own op."""
        if msg.index != self.delivered:
            raise ContextMismatchError(
                f"server stream out of order at site {self.site}: got {msg.index}, expected {self.delivered}"
            )
        self.delivered += 1
        stamped = msg.stamped
        if stamped.origin == self.site:
            acked = self.pending.pop(0)
            if acked.key() != stamped.key():
                raise ContextMismatchError(
                    f"echo mismatch at site {self.site}: {acked.key()} vs {stamped.key()}"
                )
            return None
        op = stamped.op
        n_concurrent = 0
        for i, mine in enumerate(self.pending):
            self.metrics.note_pair(op, mine.op)
            rebased = transform(mine.op, op, mine.origin, stamped.origin)
            op = transform(op, mine.op, stamped.origin, mine.origin)
            self.pending[i] = TimestampedOp(rebased, mine.origin, mine.seq, mine.clock)
            self.metrics.transform_count += 1
            n_concurrent += 1
        self.metrics.concurrent_set_sizes.append(n_concurrent)
        self.state = apply_external(self.state, op)
        self.clock = self.clock.merge(stamped.clock)
        self.buffer.append(TimestampedOp(op, stamped.origin, stamped.seq, stamped.clock))
        self.metrics.buffer_length_samples.append(len(self.buffer))
        return op

    def gc(self, stability: dict) -> int:
        """Same stability rule as :meth:`OtSite.gc`."""
        keep = [b for b in self.buffer if not all(clk.get(b.origin) >= b.seq for clk in stability.values())]
        collected = len(self.buffer) - len(keep)
        self.buffer = keep
        return collected

    fold_metrics = OtSite.fold_metrics
