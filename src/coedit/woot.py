"""WOOT-style sequence CRDT engine: identifier-based ops over an internal
object sequence with tombstones.

Every character lives in an object carrying an immutable id and the ids of
the two objects that were its visible neighbours at creation time. Deletion
only hides an object; nothing is ever removed, so concurrent operations can
always resolve their anchors. Position <-> identifier conversions are
costed as the paper's search-count method: a walk from the start of the
sequence, counting visible objects, whose length is recorded as the
engine's cost metric (`search_steps`). The walks themselves neither run
object by object in Python nor cover the whole document. The sequence is
laid out in blocks of slots, each with its objects and a `shown` string: one
code point per slot, the slot's character while it is visible and TOMB
(NUL, never a document character) otherwise. Every scan runs in C: ranks
and visible counts are `str.count`, `lstrip` steps over tombstones, the
n-th visible slot is a few counts in its block, and the visible text is the
strings with the TOMBs taken out by `str.replace`, a full scan at C speed.
Past one block, the sequence keeps each block's slot and visible counts, so
a scan sums them in C to find its block and works inside it. An edit
rebuilds its block's string. A slot is addressed one way, by its block,
its offset there and its index: from a position, the one search for the
n-th visible slot returns all three; from an id, the one lookup does, where
an id -> object dict gives its object, which names its block, and
`list.index` by identity in that block gives the offset. An id is located
once per op; its slot is remembered until the next insert or block split
moves it. A running count answers how many are visible. Each scan is charged exactly the objects the linear walk would
visit. A replica keeps no copy of the text: `WootSite.state` is a full scan
of the sequence.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Union

from .metrics import MetricsBundle
from .model import (
    BoundsError,
    CheckedRecord,
    Delete,
    ExternalOp,
    Insert,
    NoOp,
    NUL,
    SiteId,
    TimestampedOp,
    VectorClock,
    apply_external,  # unused here; perfbench/tracing.py patches this module's name
)

# Pseudo site id for objects created from the initial document; sorts below
# all real (non-negative) site ids so initial objects order deterministically.
INIT_SID = -1

# Slots per block as a sequence is built; a block that passes 2 * BLOCK slots
# splits in two.
BLOCK = 128

# What a block's `shown` holds in a slot that shows nothing: a tombstone or a
# sentinel. No document character is NUL, so it never stands for one.
TOMB = NUL


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
    """One character slot: its immutable part and the block that holds it;
    whether it is visible is kept in that block's `shown`. Compared by
    identity, so `list.index` finds an object without comparing fields."""

    character: str
    id: ObjectId
    prev: ObjectId
    next: ObjectId
    block: Block


class InsertId(CheckedRecord, namedtuple("InsertId", "character id prev next")):
    __slots__ = ()

    def __new__(cls, character: str, id: ObjectId, prev: ObjectId, next: ObjectId):
        if len(character) != 1 or character == NUL:
            raise ValueError(f"InsertId must carry exactly one character other than NUL, got {character!r}")
        return tuple.__new__(cls, (character, id, prev, next))


class DeleteId(namedtuple("DeleteId", "target")):
    __slots__ = ()


class NotExecutableError(RuntimeError):
    """The op's anchors are not present yet; causal delivery never lets this happen."""


class UnknownTargetError(RuntimeError):
    """A delete names an id that does not exist in the sequence."""


class Block:
    """A run of consecutive slots: their objects, their `shown` string, how
    many of its slots are visible, and the block's position in
    `ObjectSequence.blocks`. `shown` is one immutable `str` with one code
    point per slot: the object's character while it is visible, TOMB for a
    tombstone or a sentinel; an edit replaces it with a rebuilt string. Each
    of the block's objects names it as its `block`."""

    __slots__ = ("objects", "shown", "visible", "pos")

    def __init__(self, objects: List[WObject], shown: str, pos: int):
        self.objects = objects
        self.shown = shown
        self.visible: Optional[int] = len(shown) - shown.count(TOMB)
        self.pos = pos


VISIBLE, SHOWN = attrgetter("visible"), attrgetter("shown")


class ObjectSequence:
    """The internal state: sentinel-bounded object sequence with tombstones,
    laid out in blocks.

    A slot's index is its place in the whole sequence: the slots of the
    blocks in front of its own, plus its offset in its block. In each block,
    `shown[k]` is `objects[k]`'s character while it is visible and TOMB for a
    tombstone or a sentinel; it is the only record of visibility, so the
    visible text is every block's `shown` with the TOMBs taken out.

    A slot is addressed by its block, its offset there and its index. From
    a position, the one search `_nth` returns the three; from an id, the
    one lookup `_find` does: a slot remembered in `located`, or one made
    from the object's own `block` and a `list.index` in it. The memo stays:
    that `list.index` takes about 20 ns a slot it passes (1.37 us at
    offset 64 of 128) where a dict get takes 47 ns (2-vCPU VM, CPython 3.11).

    A sequence of one block keeps no block counts: `lens` is empty and the
    block's `visible` is None, so its three searches (`_nth`,
    `visible_rank`, `value`) work on that block alone and an edit updates
    no count. The first split starts the counts: `lens[b]` is block b's
    slot count and each block keeps its visible count; a search then sums
    them in C to find its block and makes one call inside it. The fork is
    measured on fuzz_mixed, whose sequences stay one block (2-vCPU VM,
    CPython 3.11): keeping the counts for one block too read local p50
    x1.155, remote p50 x1.077 and ops/s x0.949 over 6 pairs, losing every
    one."""

    def __init__(self, doc: str = ""):
        """The sequence of `doc`'s characters, each made by INIT_SID, every
        one visible, laid out in blocks of BLOCK slots. A NUL in `doc` is a
        ValueError: no document character is NUL."""
        if NUL in doc:
            raise ValueError(f"a document character is never NUL; got one at {doc.index(NUL)}")
        n = len(doc)
        ids = [START, *map(ObjectId, repeat(INIT_SID, n), range(1, n + 1)), END]
        shown = TOMB + doc + TOMB
        self.blocks = [Block([], shown[lo : lo + BLOCK], pos) for pos, lo in enumerate(range(0, n + 2, BLOCK))]
        objects = list(map(WObject, ["", *doc, ""], ids, [START, *ids[:n], START], [END, *ids[2:], END],
                           chain.from_iterable(map(repeat, self.blocks, repeat(BLOCK)))))
        for b in self.blocks:
            b.objects = objects[b.pos * BLOCK : (b.pos + 1) * BLOCK]
        self.by_id: Dict[ObjectId, WObject] = dict(zip(ids, objects))
        self.lens: List[int] = []
        if len(self.blocks) == 1:
            self.blocks[0].visible = None
        else:
            self.lens = [len(b.objects) for b in self.blocks]
        self.n_visible = n  # running count of visible objects
        # ids located since the last insert or split -> their (block, offset,
        # index); deletes move no slot
        self.located: Dict[ObjectId, tuple] = {}
        self.search_steps = 0  # object visits a linear scan would make

    @classmethod
    def from_text(cls, doc: str) -> "ObjectSequence":
        return cls(doc)

    # -- flat views (copies, for reading) -------------------------------------

    @property
    def objects(self) -> List[WObject]:
        return list(chain.from_iterable(b.objects for b in self.blocks))

    @property
    def shown(self) -> str:
        return "".join(map(SHOWN, self.blocks))

    # -- scans (each charged what a linear scan from the start would visit) --

    def _find(self, oid: ObjectId) -> Optional[tuple]:
        """`oid`'s block, its offset there and its index, or None when it is
        absent; charged from the front. A fresh one is one `list.index` in
        the id's own block, and is remembered until the next insert or split."""
        slot = self.located.get(oid)
        if slot is None:
            obj = self.by_id.get(oid)
            if obj is None:
                self.search_steps += len(self.by_id)
                return None
            b = obj.block
            k = b.objects.index(obj)
            slot = self.located[oid] = b, k, (b.pos and sum(self.lens[: b.pos])) + k
        self.search_steps += slot[2] + 1
        return slot

    @staticmethod
    def _absent(oid: ObjectId):
        """For an id that must be present: `self._find(oid) or self._absent(oid)`."""
        raise UnknownTargetError(f"object id {oid} not in sequence")

    def index_of(self, oid: ObjectId) -> int:
        return (self._find(oid) or self._absent(oid))[2]

    def contains(self, oid: ObjectId) -> bool:
        return self._find(oid) is not None

    def is_visible(self, oid: ObjectId) -> bool:
        """Whether `oid` is visible, charged as `index_of`."""
        b, k, _ = self._find(oid) or self._absent(oid)
        return b.shown[k] != TOMB

    def nth_visible_index(self, n: int) -> int:
        """Index of the n-th (0-based) visible object."""
        return self._nth(n)[2]

    def _nth(self, n: int) -> tuple:
        """The n-th (0-based) visible object's block, its offset there and
        its index."""
        if not 0 <= n < self.n_visible:
            self.search_steps += len(self.by_id)
            raise BoundsError(f"visible index {n} out of range (only {self.n_visible} visible)")
        if self.lens:  # the block holding it, its first index and n within it
            ends = list(accumulate(map(VISIBLE, self.blocks)))
            p = bisect_right(ends, n)
            b = self.blocks[p]
            base, n = sum(self.lens[:p]), n - ends[p] + b.visible
        else:
            b, base = self.blocks[0], 0
        # The offset is the least k with k == n + (TOMBs in shown[:k + 1]).
        # From k = n each step counts again in C and moves k up to that, and
        # past the rest of a run of tombstones it lands in.
        shown, k = b.shown, n
        while (j := n + shown.count(TOMB, 0, k + 1)) != k:
            k = j if shown[j] != TOMB else len(shown) - len(shown[j:].lstrip(TOMB))
        i = base + k
        self.search_steps += i + 1
        return b, k, i

    def visible_rank(self, index: int) -> int:
        """Number of visible objects strictly before `index`."""
        self.search_steps += index
        if not self.lens:
            return index - self.blocks[0].shown.count(TOMB, 0, index)
        ends = list(accumulate(self.lens))
        p = bisect_right(ends, index)
        rank = sum(map(VISIBLE, self.blocks[:p]))
        if p < len(ends):
            k = index - ends[p] + self.lens[p]
            rank += k - self.blocks[p].shown.count(TOMB, 0, k)
        return rank

    # -- derived views (full scans, not charged) ----------------------------

    def value(self) -> str:
        shown = "".join(map(SHOWN, self.blocks)) if self.lens else self.blocks[0].shown
        return shown.replace(TOMB, "")

    def visible_count(self) -> int:
        return sum(len(b.shown) - b.shown.count(TOMB) for b in self.blocks)

    def total_count(self) -> int:
        """Non-sentinel objects, tombstones included."""
        return len(self.by_id) - 2

    def dump(self) -> str:
        text = {oid: f"{oid.sid}.{oid.seq}" for oid in self.by_id}  # each id formatted once
        text[START], text[END] = "@s", "@e"
        lines = [f"{o.character}|{text[o.id]}|prev={text[o.prev]}|next={text[o.next]}|{'iv' if ch == TOMB else 'v'}"
                 for o, ch in zip(self.objects, self.shown)]
        lines[0], lines[-1] = "@s", "@e"  # a sentinel's line is its id alone
        return "\n".join(lines)

    # -- conversions --------------------------------------------------------

    def pos_to_id(self, eo: ExternalOp, site: SiteId, next_seq: int) -> Union[InsertId, DeleteId]:
        """Convert a position-based op (not yet applied here) to identifier form."""
        if isinstance(eo, Delete):
            b, k, _ = slot = self._nth(eo.position)
            target = b.objects[k].id
            self.located[target] = slot
            return DeleteId(target)
        if isinstance(eo, Insert):
            visible = self.n_visible
            if not 0 <= eo.position <= visible:
                raise BoundsError(f"insert position {eo.position} out of range for {visible} visible objects")
            b, k, i = slot = self._nth(eo.position - 1) if eo.position else (self.blocks[0], 0, 0)  # slot 0 is START
            prev = b.objects[k].id
            if eo.position == visible:
                b = self.blocks[-1]
                k, j = len(b.objects) - 1, len(self.by_id) - 1
            else:
                # Step over the tombstones after the left neighbour to the next
                # visible object, but charge the walk from the start that the
                # reference conversion makes. Tombstones are stripped in C,
                # and a block that ends in them is left for the next block
                # with a visible slot.
                base, shown = i - k, b.shown  # base: the block's first index
                k += 1
                if k == len(shown) or shown[k] == TOMB:
                    rest = shown[k:].lstrip(TOMB)
                    while not rest:
                        base += len(shown)
                        b = self.blocks[b.pos + 1]
                        shown = b.shown
                        rest = shown.lstrip(TOMB)
                    k = len(shown) - len(rest)
                j = base + k
                self.search_steps += j + 1
            nxt = b.objects[k].id
            self.located[prev], self.located[nxt] = slot, (b, k, j)
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
        b, k, _ = self._find(op.target) or self._absent(op.target)
        shown = b.shown
        if shown[k] != TOMB:
            b.shown = f"{shown[:k]}{TOMB}{shown[k + 1:]}"
            self.n_visible -= 1
            if self.lens:
                b.visible -= 1

    def executable(self, op: Union[InsertId, DeleteId]) -> bool:
        if isinstance(op, DeleteId):
            return self._find(op.target) is not None
        return self._find(op.prev) is not None and self._find(op.next) is not None

    def integrate_insert(self, op: InsertId) -> bool:
        """Place the new object between its anchors; False, with nothing
        changed, when its id is already here.

        When other objects sit strictly between the anchors, the span is
        narrowed to the candidates whose own anchors enclose the whole span,
        the new id is ordered among them, and placement recurses into the
        chosen sub-span. All replicas resolve concurrent siblings identically.
        """
        character, oid, prev, nxt = op  # unpacked once: a tuple record reads a field slower than an instance dict
        if self.contains(oid):  # duplicate delivery
            return False
        while True:
            b, k, p = self._find(prev) or self._absent(prev)
            nb, nk, n = self._find(nxt) or self._absent(nxt)
            if p >= n:
                raise NotExecutableError(f"anchor order violated for {oid}: {prev} !< {nxt}")
            if n == p + 1:  # the new object takes `nxt`'s slot
                if self.lens:
                    nb.visible += 1
                    self.lens[nb.pos] += 1
                new = WObject(character, oid, op.prev, op.next, nb)
                self.by_id[oid] = new
                self.located = {oid: (nb, nk, n)}  # every slot from n on has moved
                self.n_visible += 1
                nb.objects.insert(nk, new)
                shown = nb.shown
                nb.shown = f"{shown[:nk]}{character}{shown[nk:]}"
                if len(nb.objects) > 2 * BLOCK:
                    self._split(nb)
                return True
            left = b.objects[k]
            k += 1
            width = n - p - 1
            span = b.objects[k : k + width]
            while len(span) < width:
                b = self.blocks[b.pos + 1]
                span += b.objects[: width - len(span)]
            candidates = [left]
            for obj in span:
                self.search_steps += 1
                o_prev, o_next = self._placement_anchors(obj)
                if self.index_of(o_prev) <= p and self.index_of(o_next) >= n:
                    candidates.append(obj)
            candidates.append(nb.objects[nk])
            if len(candidates) == 2:
                raise RuntimeError(
                    f"placement stalled for {oid}: no candidate strictly between {prev} and {nxt}"
                )
            i = 1
            while i < len(candidates) - 1 and candidates[i].id < oid:
                i += 1
            prev, nxt = candidates[i - 1].id, candidates[i].id

    def _split(self, b: Block) -> None:
        """Split block b into two halves; no slot's index moves, but half of
        them move block, so the remembered slots are forgotten. The first
        split starts the block counts."""
        self.located = {}
        if not self.lens:
            b.visible = len(b.shown) - b.shown.count(TOMB)
            self.lens = [len(b.objects)]
        half = len(b.objects) // 2
        right = Block(b.objects[half:], b.shown[half:], b.pos + 1)
        del b.objects[half:]
        b.shown = b.shown[:half]
        b.visible -= right.visible
        for o in right.objects:
            o.block = right
        self.blocks.insert(right.pos, right)
        self.lens[b.pos : right.pos] = [half, len(right.objects)]
        for q in range(right.pos + 1, len(self.blocks)):
            self.blocks[q].pos = q

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
class WootSite:
    """One WOOT replica: an object sequence and a clock; `state` reads the text from the sequence."""

    site: SiteId
    istate: ObjectSequence
    clock: VectorClock = field(default_factory=VectorClock)
    metrics: MetricsBundle = field(default_factory=MetricsBundle)
    counts: tuple = field(default=(0, 0), init=False)  # (tombstones, objects) at the last op; neither may fall

    @classmethod
    def create(cls, site: SiteId, doc: str, metrics: Optional[MetricsBundle] = None) -> "WootSite":
        """A replica of `doc` counting into `metrics`, a fresh record by default."""
        istate = ObjectSequence.from_text(doc)
        metrics = MetricsBundle() if metrics is None else metrics
        metrics.init_cost = istate.total_count()
        return cls(site=site, istate=istate, metrics=metrics)

    @property
    def state(self) -> str:
        return self.istate.value()

    def _sample(self, steps_before: int) -> None:
        """Record an op's search steps; neither the tombstone nor the object count may have fallen."""
        istate = self.istate
        self.metrics.search_steps_per_op.append(istate.search_steps - steps_before)
        total = istate.total_count()
        tombstones = total - istate.n_visible
        if tombstones < self.counts[0]:
            raise AssertionError(f"site {self.site}: tombstone count decreased")
        if total < self.counts[1]:
            raise AssertionError(f"site {self.site}: object count decreased")
        self.counts = tombstones, total

    def collect(self) -> int:
        """A sequence keeps its tombstones and no log: nothing to drop."""
        return 0

    def quiesce(self, stability: dict, created: int, deleted: int) -> tuple:
        """End of run: check the sequence's accounting against the session's
        instance counts and record C and C_t; returns (no gc, the dump of
        the sequence)."""
        i, seq = self.site, self.istate
        slots = sum(len(b.objects) for b in seq.blocks)
        if len(seq.by_id) != slots:
            raise AssertionError(f"site {i}: id index holds {len(seq.by_id)} of {slots} objects")
        # block counts are kept from the first split on, and only then
        counted = len(seq.blocks) > 1
        lens = [len(b.objects) for b in seq.blocks] if counted else []
        if seq.lens != lens:
            raise AssertionError(f"site {i}: block lengths {seq.lens}, expected {lens}")
        for pos, b in enumerate(seq.blocks):
            # `shown` is the only record of visibility, slot for slot with `objects`
            if len(b.shown) != len(b.objects):
                raise AssertionError(f"site {i}: block {pos}'s shown string holds {len(b.shown)} slots for {len(b.objects)} objects")
            if any(ch != TOMB and ch != o.character for o, ch in zip(b.objects, b.shown)):
                raise AssertionError(f"site {i}: block {pos}'s shown string disagrees with its objects' characters")
            visible = len(b.shown) - b.shown.count(TOMB) if counted else None
            if b.pos != pos or b.visible != visible:
                raise AssertionError(f"site {i}: block {pos} is numbered {b.pos} and keeps visible count {b.visible}, expected {visible}")
            # the objects' `block` slots are the block index
            if any(o.block is not b for o in b.objects):
                raise AssertionError(f"site {i}: the block index does not place every object of block {pos} in it")
        if seq.blocks[0].shown[0] != TOMB or seq.blocks[-1].shown[-1] != TOMB:
            raise AssertionError(f"site {i}: a sentinel is shown")
        if seq.total_count() != created:
            raise AssertionError(f"site {i}: object count {seq.total_count()} != initial+inserts {created}")
        if seq.visible_count() != created - deleted:
            raise AssertionError(f"site {i}: visible count {seq.visible_count()} != {created} - {deleted}")
        # C and the per-op tombstone checks read the running count
        if seq.n_visible != seq.visible_count():
            raise AssertionError(f"site {i}: running visible count {seq.n_visible} != {seq.visible_count()}")
        # the checks above hold every replica to the same C and C_t
        self.metrics.final_visible, self.metrics.final_total = seq.n_visible, seq.total_count()
        return None, seq.dump()

    def local(self, eo: ExternalOp) -> TimestampedOp:
        """Convert a local position-based op, integrate it, and hand it back
        for propagation, stamped with its identifier op. The conversion runs
        against the pre-op sequence."""
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
        self._sample(steps0)
        return TimestampedOp(id_form, self.site, seq, self.clock)

    def remote(self, idop: TimestampedOp) -> ExternalOp:
        """Integrate a remote identifier-based op; return its position-based form for the visible text."""
        steps0, unchanged = self._integrate(idop)
        eo = NoOp() if unchanged else self.istate.id_to_pos(idop.op)
        self._sample(steps0)
        return eo

    def _integrate(self, idop: TimestampedOp) -> tuple:
        """Integrate into the internal sequence only; returns the search-step
        count before it and whether the op changed nothing: an insert whose
        id is already here, or a delete whose target was already tombstoned."""
        if idop.origin == self.site:
            raise ValueError("a site never delivers its own message")
        op = idop.op
        insert = type(op) is InsertId
        if not self.istate.executable(op):
            # The wire cannot bound an INIT_SID id, since the initial
            # document's length is not on it; every initial object is here
            # from the start, so an absent one is malformed, not early.
            for oid in (op.prev, op.next) if insert else (op.target,):
                if oid.sid == INIT_SID and oid not in self.istate.by_id:
                    raise ValueError(f"op {idop.key()} names {oid}, beyond the initial document")
            raise NotExecutableError(f"op {idop.key()} anchors not present yet")
        steps0 = self.istate.search_steps
        if insert:
            unchanged = not self.istate.integrate_insert(op)
        else:
            unchanged = not self.istate.is_visible(op.target)
            self.istate.integrate_delete(op)
        self.clock = self.clock.merge(idop.clock)
        return steps0, unchanged


class SkipConversionSite(WootSite):
    """The `skip34` ablation: remote ops are integrated into the internal
    sequence but never converted to positions or applied to the text, which
    shows that the conversion step is load-bearing."""

    def remote(self, idop: TimestampedOp) -> None:
        steps0, _ = self._integrate(idop)
        self._sample(steps0)
