"""WOOT-style sequence CRDT engine: identifier-based ops over an internal
object sequence with tombstones.

Every character lives in an object carrying an immutable id and the ids of
the two objects that were its visible neighbours at creation time. Deletion
only hides an object; nothing is ever removed, so concurrent operations can
always resolve their anchors. Position <-> identifier conversions are
costed as the paper's search-count method: a walk from the start of the
sequence, counting visible objects, whose length is recorded as the
engine's cost metric (`search_steps`). The walks themselves do not run
object by object in Python. Visibility lives in one list, `shown`, beside
`objects`: each slot's character while it is visible and "" otherwise, so
the visible text is a join, counts and ranks are `list.count`, and
`itertools` finds the n-th visible slot in C. An id is located once per op:
an id -> object dict plus `list.index` by identity finds it, and its index
is remembered until the next insert shifts the list. A running count
answers how many are visible. Each scan is charged exactly the objects the
linear walk would visit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, count, islice, repeat
from typing import Dict, List, NamedTuple, Union

from .model import (
    BoundsError,
    Delete,
    EngineInvariantError,
    ExternalOp,
    Insert,
    NoOp,
    SiteId,
    VectorClock,
    apply_external,
)

# Pseudo site id for objects created from the initial document; sorts below
# all real (non-negative) site ids so initial objects order deterministically.
INIT_SID = -1


class ObjectId(NamedTuple):
    """Object identifier, totally ordered as the tuple (sid, seq). The
    Start/End sentinels' sids lie below and above every sid a session mints."""

    sid: int
    seq: int

    def __str__(self) -> str:
        if self == START:
            return "@s"
        if self == END:
            return "@e"
        return f"{self.sid}.{self.seq}"


START = ObjectId(-(2**31), 0)
END = ObjectId(2**31, 0)


@dataclass(eq=False, slots=True)
class WObject:
    """One character slot's immutable part; whether it is visible is kept
    in `ObjectSequence.shown`. Compared by identity, so `list.index` finds
    an object without comparing fields."""

    character: str
    id: ObjectId
    prev: ObjectId
    next: ObjectId


@dataclass(frozen=True)
class InsertId:
    character: str
    id: ObjectId
    prev: ObjectId
    next: ObjectId

    def __post_init__(self):
        if len(self.character) != 1:
            raise ValueError(f"InsertId must carry exactly one character, got {self.character!r}")


@dataclass(frozen=True)
class DeleteId:
    target: ObjectId


@dataclass(frozen=True)
class IdOp:
    """Identifier-based op plus delivery metadata."""

    op: Union[InsertId, DeleteId]
    origin: SiteId
    seq: int
    clock: VectorClock

    def key(self) -> tuple:
        return (self.origin, self.seq)


class NotExecutableError(RuntimeError):
    """The op's anchors are not present yet; causal delivery never lets this happen."""


class UnknownTargetError(RuntimeError):
    """A delete names an id that does not exist in the sequence."""


class ObjectSequence:
    """The internal state: sentinel-bounded object list with tombstones.

    `shown[i]` is `objects[i]`'s character while it is visible and "" for a
    tombstone or a sentinel; it is the only record of visibility."""

    def __init__(self):
        self.objects: List[WObject] = [WObject("", START, START, END), WObject("", END, START, END)]
        self.shown: List[str] = ["", ""]
        self.by_id: Dict[ObjectId, WObject] = {o.id: o for o in self.objects}
        # ids located since the last insert -> their index; deletes move no index
        self.located: Dict[ObjectId, int] = {}
        self.n_visible = 0  # running count of visible objects
        self.search_steps = 0  # object visits a linear scan would make

    @classmethod
    def from_text(cls, doc: str, creator: SiteId = INIT_SID) -> "ObjectSequence":
        seq, n = cls(), len(doc)
        ids = list(map(ObjectId, repeat(creator, n), range(1, n + 1)))
        chain = [START, *ids, END]
        body = list(map(WObject, doc, ids, chain, chain[2:]))
        seq.objects[1:1] = body
        seq.shown[1:1] = doc
        seq.by_id.update(zip(ids, body))
        seq.n_visible = n
        return seq

    # -- scans (each charged what a linear scan from the start would visit) --

    def _locate(self, oid: ObjectId, start: int = 0) -> int:
        """Index of `oid`, or -1 when it is absent; the search may begin at a
        `start` the id is known to follow, but is charged from the front."""
        i = self.located.get(oid)
        if i is None:
            obj = self.by_id.get(oid)
            if obj is None:
                self.search_steps += len(self.objects)
                return -1
            try:
                i = self.objects.index(obj, start)
            except ValueError:
                i = self.objects.index(obj)
            self.located[oid] = i
        self.search_steps += i + 1
        return i

    def index_of(self, oid: ObjectId) -> int:
        i = self._locate(oid)
        if i < 0:
            raise UnknownTargetError(f"object id {oid} not in sequence")
        return i

    def contains(self, oid: ObjectId) -> bool:
        return self._locate(oid) >= 0

    def nth_visible_index(self, n: int) -> int:
        """Index of the n-th (0-based) visible object."""
        i = None
        if n >= 0:
            i = next(islice(compress(count(), self.shown), n, None), None)
        if i is None:
            self.search_steps += len(self.objects)
            raise BoundsError(f"visible index {n} out of range (only {self.n_visible} visible)")
        self.search_steps += i + 1
        return i

    def visible_rank(self, index: int) -> int:
        """Number of visible objects strictly before `index`."""
        self.search_steps += index
        return index - self.shown[:index].count("")

    # -- derived views (full scans, not charged) ----------------------------

    def value(self) -> str:
        return "".join(self.shown)

    def visible_count(self) -> int:
        return len(self.shown) - self.shown.count("")

    def total_count(self) -> int:
        """Non-sentinel objects, tombstones included."""
        return len(self.objects) - 2

    def dump(self) -> str:
        text = {oid: f"{oid.sid}.{oid.seq}" for oid in self.by_id}  # each id formatted once
        text[START], text[END] = "@s", "@e"
        lines = [f"{o.character}|{text[o.id]}|prev={text[o.prev]}|next={text[o.next]}|{'v' if ch else 'iv'}"
                 for o, ch in zip(self.objects, self.shown)]
        lines[0], lines[-1] = "@s", "@e"  # a sentinel's line is its id alone
        return "\n".join(lines)

    # -- conversions --------------------------------------------------------

    def pos_to_id(self, eo: ExternalOp, site: SiteId, next_seq: int) -> Union[InsertId, DeleteId]:
        """Convert a position-based op (not yet applied here) to identifier form."""
        if isinstance(eo, Delete):
            i = self.nth_visible_index(eo.position)
            target = self.objects[i].id
            self.located[target] = i
            return DeleteId(target)
        if isinstance(eo, Insert):
            visible = self.n_visible
            if not 0 <= eo.position <= visible:
                raise BoundsError(f"insert position {eo.position} out of range for {visible} visible objects")
            objects, shown = self.objects, self.shown
            i = 0 if eo.position == 0 else self.nth_visible_index(eo.position - 1)  # objects[0] is START
            if eo.position == visible:
                j = len(objects) - 1  # END
            else:
                # Step over the tombstones after the left neighbour to the next
                # visible object, but charge the walk from the start that the
                # reference conversion makes.
                j = i + 1
                while not shown[j]:
                    j += 1
                self.search_steps += j + 1
            prev, nxt = objects[i].id, objects[j].id
            self.located[prev], self.located[nxt] = i, j
            return InsertId(eo.character, ObjectId(site, next_seq), prev, nxt)
        raise ValueError(f"cannot convert {eo!r} to identifier form")

    def id_to_pos(self, op: Union[InsertId, DeleteId]) -> ExternalOp:
        """Convert an already-integrated identifier op back to position form."""
        if isinstance(op, DeleteId):
            index = self.index_of(op.target)
            # The target was visible the instant before it was tombstoned, so
            # its position is the count of visible objects in front of it.
            return Delete(self.visible_rank(index))
        index = self.index_of(op.id)
        return Insert(self.visible_rank(index), op.character)

    # -- integration --------------------------------------------------------

    def integrate_delete(self, op: DeleteId) -> None:
        """Tombstone the target; idempotent."""
        i = self.index_of(op.target)
        if self.shown[i]:
            self.shown[i] = ""
            self.n_visible -= 1

    def executable(self, op: Union[InsertId, DeleteId]) -> bool:
        if isinstance(op, DeleteId):
            return self.contains(op.target)
        p = self._locate(op.prev)  # `next` follows `prev`, so its search starts there
        return p >= 0 and self._locate(op.next, p) >= 0

    def integrate_insert(self, op: InsertId) -> None:
        """Place the new object between its anchors.

        When other objects sit strictly between the anchors, the span is
        narrowed to the candidates whose own anchors enclose the whole span,
        the new id is ordered among them, and placement recurses into the
        chosen sub-span. All replicas resolve concurrent siblings identically.
        """
        if self.contains(op.id):  # duplicate delivery
            return
        new = WObject(op.character, op.id, op.prev, op.next)
        prev, nxt = op.prev, op.next
        while True:
            p = self.index_of(prev)
            n = self.index_of(nxt)
            if p >= n:
                raise NotExecutableError(f"anchor order violated for {op.id}: {prev} !< {nxt}")
            if n == p + 1:
                self.objects.insert(n, new)
                self.shown.insert(n, new.character)
                self.by_id[new.id] = new
                self.located = {new.id: n}  # every index from n on has moved
                self.n_visible += 1
                return
            candidates = [self.objects[p]]
            for obj in self.objects[p + 1 : n]:
                self.search_steps += 1
                o_prev, o_next = self._placement_anchors(obj)
                if self.index_of(o_prev) <= p and self.index_of(o_next) >= n:
                    candidates.append(obj)
            candidates.append(self.objects[n])
            if len(candidates) == 2:
                raise RuntimeError(
                    f"placement stalled for {op.id}: no candidate strictly between {prev} and {nxt}"
                )
            i = 1
            while i < len(candidates) - 1 and candidates[i].id < new.id:
                i += 1
            prev, nxt = candidates[i - 1].id, candidates[i].id

    @staticmethod
    def _placement_anchors(obj: WObject) -> tuple:
        """Anchors used by the recursive placement rule.

        Initial-document objects record their chain neighbours as (prev, next)
        so the dump matches the canonical initial sequence, but the sequence
        was not built by inserts with those anchors. For placement they behave
        as if typed left to right (each anchored on its predecessor and the
        end sentinel), which is a genuine operation history; without this the
        candidate narrowing can stall between two initial objects whose
        interior is all tombstones.
        """
        if obj.id.sid == INIT_SID:
            return obj.prev, END
        return obj.prev, obj.next


@dataclass
class WootMetrics:
    search_steps_per_op: list = field(default_factory=list)
    visible_counts: list = field(default_factory=list)
    total_counts: list = field(default_factory=list)
    init_cost: int = 0


@dataclass
class WootSite:
    """One WOOT replica: object sequence plus a mirror of the visible text."""

    site: SiteId
    istate: ObjectSequence
    state: str = ""
    clock: VectorClock = field(default_factory=VectorClock)
    metrics: WootMetrics = field(default_factory=WootMetrics)

    @classmethod
    def create(cls, site: SiteId, doc: str) -> "WootSite":
        istate = ObjectSequence.from_text(doc)
        return cls(site=site, istate=istate, state=doc, metrics=WootMetrics(init_cost=istate.total_count()))

    def _sample(self, steps_before: int) -> None:
        self.metrics.search_steps_per_op.append(self.istate.search_steps - steps_before)
        self.metrics.visible_counts.append(self.istate.n_visible)
        self.metrics.total_counts.append(self.istate.total_count())

    def _check_value(self) -> None:
        if self.istate.value() != self.state:
            raise EngineInvariantError(f"site {self.site}: value(IS) {self.istate.value()!r} != text {self.state!r}")

    def fold_metrics(self, bundle, first: bool) -> None:
        m = self.metrics
        if first:
            bundle.visible_series = list(m.visible_counts)
            bundle.total_series = list(m.total_counts)
        bundle.search_steps_per_op.extend(m.search_steps_per_op)
        bundle.init_cost = max(bundle.init_cost, m.init_cost)

    def quiesce(self, stability: dict, created: int, deleted: int) -> tuple:
        """End of run: check the sequence's accounting against the session's
        instance counts; returns (no gc, the dump of the sequence)."""
        i, seq = self.site, self.istate
        if seq.total_count() != created:
            raise AssertionError(f"site {i}: object count {seq.total_count()} != initial+inserts {created}")
        if seq.visible_count() != created - deleted:
            raise AssertionError(f"site {i}: visible count {seq.visible_count()} != {created} - {deleted}")
        # the recorded visible series comes from the running count
        if seq.n_visible != seq.visible_count():
            raise AssertionError(f"site {i}: running visible count {seq.n_visible} != {seq.visible_count()}")
        if len(seq.by_id) != len(seq.objects):
            raise AssertionError(f"site {i}: id index holds {len(seq.by_id)} of {len(seq.objects)} objects")
        # `shown` is the only record of visibility, slot for slot with `objects`
        if len(seq.shown) != len(seq.objects):
            raise AssertionError(f"site {i}: shown list holds {len(seq.shown)} slots for {len(seq.objects)} objects")
        if any(ch and ch != o.character for o, ch in zip(seq.objects, seq.shown)):
            raise AssertionError(f"site {i}: shown list disagrees with the objects' characters")
        if seq.shown[0] or seq.shown[-1]:
            raise AssertionError(f"site {i}: a sentinel is shown")
        totals = self.metrics.total_counts
        invisible = [t - v for t, v in zip(totals, self.metrics.visible_counts)]
        if any(b < a for a, b in zip(invisible, invisible[1:])):
            raise AssertionError(f"site {i}: tombstone count decreased")
        if any(b < a for a, b in zip(totals, totals[1:])):
            raise AssertionError(f"site {i}: object count decreased")
        return None, seq.dump()

    def local(self, eo: ExternalOp) -> IdOp:
        """Convert a local position-based op, integrate it, and hand it back
        for propagation. The conversion runs against the pre-op sequence."""
        if isinstance(eo, NoOp):
            raise ValueError("NoOp is not propagated")
        steps0 = self.istate.search_steps
        self.clock = self.clock.tick(self.site)
        seq = self.clock.get(self.site)
        id_form = self.istate.pos_to_id(eo, self.site, seq)
        if isinstance(id_form, InsertId):
            self.istate.integrate_insert(id_form)
        else:
            self.istate.integrate_delete(id_form)
        self.state = apply_external(self.state, eo)
        self._sample(steps0)
        self._check_value()
        return IdOp(id_form, self.site, seq, self.clock)

    def remote(self, idop: IdOp) -> ExternalOp:
        """Integrate a remote identifier-based op; return its position-based form for the visible text."""
        steps0, already_gone = self._integrate(idop)
        eo = NoOp() if already_gone else self.istate.id_to_pos(idop.op)
        self.state = apply_external(self.state, eo)
        self._sample(steps0)
        self._check_value()
        return eo

    def _integrate(self, idop: IdOp) -> tuple:
        """Integrate into the internal sequence only; returns the search-step
        count before it and whether a delete's target was already tombstoned."""
        if idop.origin == self.site:
            raise ValueError("a site never delivers its own message")
        if not self.istate.executable(idop.op):
            raise NotExecutableError(f"op {idop.key()} anchors not present yet")
        steps0 = self.istate.search_steps
        already_gone = False
        if isinstance(idop.op, InsertId):
            self.istate.integrate_insert(idop.op)
        else:
            already_gone = not self.istate.shown[self.istate.index_of(idop.op.target)]
            self.istate.integrate_delete(idop.op)
        self.clock = self.clock.merge(idop.clock)
        return steps0, already_gone


class SkipConversionSite(WootSite):
    """The `skip34` ablation: remote ops are integrated into the internal
    sequence but never converted to positions or applied to the text, which
    shows that the conversion step is load-bearing."""

    def remote(self, idop: IdOp) -> None:
        steps0, _ = self._integrate(idop)
        self._sample(steps0)
        return None
