"""Identifier-sequence engine: object sequence, conversions, integration,
order-insensitivity, and the conversion-skip ablation."""

import itertools
import random
from contextlib import contextmanager

import pytest
from hypothesis import assume, example, given, strategies as st

from coedit import woot
from coedit.framework import Site
from coedit.model import BoundsError, Delete, EngineInvariantError, Insert, NoOp, TimestampedOp, VectorClock
from coedit.woot import (
    DeleteId,
    END,
    INIT_SID,
    InsertId,
    NotExecutableError,
    ObjectId,
    ObjectSequence,
    START,
    SkipConversionSite,
    TOMB,
    UnknownTargetError,
    WootSite,
)


def oid(sid, seq):
    return ObjectId(sid, seq)


def ins_op(site, seq, char, prev, nxt, **clock):
    clock[site] = seq
    return TimestampedOp(InsertId(char, oid(site, seq), prev, nxt), site, seq, VectorClock(clock))


def del_op(site, seq, target, **clock):
    clock[site] = seq
    return TimestampedOp(DeleteId(target), site, seq, VectorClock(clock))


def sentinel_first_key(o):
    """Reference id order: START below and END above every other id, which
    are ordered by (sid, seq)."""
    if o == START:
        return (0, 0, 0)
    if o == END:
        return (2, 0, 0)
    return (1, o.sid, o.seq)


# the wire's ranges: sid is a signed, seq an unsigned 64-bit integer
wire_sids = st.one_of(st.integers(-2, 4), st.integers(-(2**63), 2**63 - 1))
wire_seqs = st.one_of(st.integers(0, 4), st.integers(0, 2**64 - 1))
wire_ids = st.builds(ObjectId, wire_sids, wire_seqs)

NON_BMP = "\U0001F600"


class TestObjectId:
    def test_total_order(self):
        assert START < oid(0, 1) < oid(0, 2) < oid(1, 1) < END
        assert START < oid(INIT_SID, 1) < oid(0, 1)

    def test_rendering(self):
        assert str(START) == "@s" and str(END) == "@e"
        assert str(oid(1, 3)) == "1.3"
        assert repr(START) == "ObjectId(sid=-2147483648, seq=0)"
        assert repr(END) == "ObjectId(sid=2147483648, seq=0)"

    @given(wire_ids, wire_ids)
    def test_order_matches_sentinel_first_order(self, a, b):
        assume(a not in (START, END) and b not in (START, END))
        assert (a < b) == (sentinel_first_key(a) < sentinel_first_key(b))
        assert (a == b) == (sentinel_first_key(a) == sentinel_first_key(b))

    @given(st.integers(INIT_SID, 2**31 - 1), st.integers(0, 2**64 - 1))
    def test_sentinels_bracket_session_ids(self, sid, seq):
        assert START < oid(sid, seq) < END

    @given(wire_sids, wire_seqs)
    def test_text_forms(self, sid, seq):
        o = oid(sid, seq)
        assume(o not in (START, END))
        assert str(o) == f"{sid}.{seq}"
        assert repr(o) == f"ObjectId(sid={sid}, seq={seq})"


class TestInitSequence:
    def test_initial_doc_chained(self):
        seq = ObjectSequence.from_text("abe")
        assert seq.dump() == "\n".join([
            "@s",
            "a|-1.1|prev=@s|next=-1.2|v",
            "b|-1.2|prev=-1.1|next=-1.3|v",
            "e|-1.3|prev=-1.2|next=@e|v",
            "@e",
        ])
        assert seq.value() == "abe"

    def test_empty_doc(self):
        seq = ObjectSequence()
        assert seq.dump() == "@s\n@e"
        assert seq.value() == "" and seq.total_count() == 0

    def test_nul_is_never_a_document_character(self):
        # NUL marks a block slot that shows nothing
        with pytest.raises(ValueError, match="never NUL"):
            ObjectSequence.from_text("ab\x00")
        with pytest.raises(ValueError, match="other than NUL"):
            InsertId("\x00", oid(0, 1), START, END)

    def test_non_bmp_character_in_a_block(self):
        """A non-BMP character is one code point, so it fills one slot of its
        block's `shown`, as any other character does."""
        for _ in block_sizes():
            site = WootSite.create(0, NON_BMP + "a" + NON_BMP)
            for eo in (Insert(1, NON_BMP), Delete(0), Insert(3, "b"), Delete(1)):
                site.local(eo)  # each op holds value() to the text
            seq = site.istate
            assert site.state == seq.value() == NON_BMP + NON_BMP + "b"
            assert all(len(b.shown) == len(b.objects) for b in seq.blocks)
            assert seq.shown == TOMB + TOMB + NON_BMP + TOMB + NON_BMP + "b" + TOMB
            assert seq.dump() == per_line_dump(seq)

    def test_large_doc_object_count(self):
        seq = ObjectSequence.from_text("x" * 1000)
        assert len(seq.objects) == 1002
        assert seq.total_count() == 1000

    def test_from_text_across_block_boundaries(self):
        """One block, a full one, and two or three; every slot's index is its
        place in the flat view, charged as the walk to it."""
        for n in range(max(woot.BLOCK - 3, 0), 2 * woot.BLOCK + 2):
            doc = "".join(random.Random(n).choice(["a", " ", NON_BMP]) for _ in range(n))
            seq = ObjectSequence.from_text(doc)
            sizes = [len(b.objects) for b in seq.blocks]
            assert sizes == [woot.BLOCK] * ((n + 2) // woot.BLOCK) + [(n + 2) % woot.BLOCK] * ((n + 2) % woot.BLOCK > 0)
            assert seq.lens == (sizes if len(sizes) > 1 else [])  # a lone block keeps no counts
            assert seq.dump() == per_line_dump(seq)
            assert seq.shown == TOMB + doc + TOMB and seq.value() == doc
            assert [seq.index_of(o.id) for o in seq.objects] == list(range(n + 2))
            assert seq.search_steps == (n + 2) * (n + 3) // 2


class TestConversions:
    def test_pos_to_id_delete(self):
        seq = ObjectSequence.from_text("abe")
        assert seq.pos_to_id(Delete(1), site=0, next_seq=1) == DeleteId(oid(INIT_SID, 2))

    def test_pos_to_id_insert(self):
        seq = ObjectSequence.from_text("abe")
        got = seq.pos_to_id(Insert(2, "c"), site=1, next_seq=1)
        assert got == InsertId("c", oid(1, 1), oid(INIT_SID, 2), oid(INIT_SID, 3))

    def test_pos_to_id_skips_tombstones(self):
        seq = ObjectSequence.from_text("abe")
        seq.integrate_delete(DeleteId(oid(INIT_SID, 2)))  # tombstone 'b'
        # visible is "ae"; D(1) now targets 'e'
        assert seq.pos_to_id(Delete(1), site=0, next_seq=1) == DeleteId(oid(INIT_SID, 3))

    def test_pos_to_id_bounds(self):
        seq = ObjectSequence.from_text("ab")
        with pytest.raises(BoundsError):
            seq.pos_to_id(Delete(2), site=0, next_seq=1)
        with pytest.raises(BoundsError):
            seq.pos_to_id(Insert(3, "x"), site=0, next_seq=1)

    def test_id_to_pos_delete_counts_target_as_visible(self):
        # B's side of the walkthrough: "abce" with b just tombstoned
        seq = ObjectSequence.from_text("abe")
        c = InsertId("c", oid(1, 1), oid(INIT_SID, 2), oid(INIT_SID, 3))
        seq.integrate_insert(c)
        d = DeleteId(oid(INIT_SID, 2))
        seq.integrate_delete(d)
        assert seq.id_to_pos(d) == Delete(1)

    def test_id_to_pos_insert(self):
        # A's side: b tombstoned first, then c integrated
        seq = ObjectSequence.from_text("abe")
        seq.integrate_delete(DeleteId(oid(INIT_SID, 2)))
        c = InsertId("c", oid(1, 1), oid(INIT_SID, 2), oid(INIT_SID, 3))
        seq.integrate_insert(c)
        assert seq.id_to_pos(c) == Insert(1, "c")

    def test_id_to_pos_first_visible(self):
        seq = ObjectSequence.from_text("ab")
        d = DeleteId(oid(INIT_SID, 1))
        seq.integrate_delete(d)
        assert seq.id_to_pos(d) == Delete(0)

    def test_conversions_count_search_steps(self):
        seq = ObjectSequence.from_text("abcde")
        before = seq.search_steps
        seq.pos_to_id(Delete(4), site=0, next_seq=1)
        assert seq.search_steps > before

    @pytest.mark.parametrize("size", [woot.BLOCK, 64])
    def test_nth_visible_crosses_a_tombstone_run_in_one_step(self, size):
        """The n-th visible search lands in a run of tombstones and moves
        past it at once, not one count per tombstone: 98 of them in a lone
        block, the last 36 of them in the second of two."""

        class CountingStr(str):
            calls = 0

            def count(self, *args):
                CountingStr.calls += 1
                return super().count(*args)

        with block_size(size):
            seq = ObjectSequence.from_text("a" + "x" * 98 + "b")
            for _ in range(98):
                seq.integrate_delete(seq.pos_to_id(Delete(1), site=0, next_seq=1))
            b = next(blk for blk in seq.blocks if "b" in blk.shown)
            b.shown = CountingStr(b.shown)
            assert seq.nth_visible_index(1) == 100
            assert CountingStr.calls <= 3


class TestIntegrate:
    def test_delete_tombstones_in_place(self):
        seq = ObjectSequence.from_text("abe")
        seq.integrate_delete(DeleteId(oid(INIT_SID, 2)))
        assert seq.value() == "ae"
        assert seq.total_count() == 3  # tombstone retained
        assert "b|-1.2|prev=-1.1|next=-1.3|iv" in seq.dump()

    def test_delete_idempotent(self):
        seq = ObjectSequence.from_text("abe")
        d = DeleteId(oid(INIT_SID, 2))
        seq.integrate_delete(d)
        seq.integrate_delete(d)
        assert seq.value() == "ae" and seq.total_count() == 3

    def test_delete_last_visible(self):
        seq = ObjectSequence.from_text("a")
        seq.integrate_delete(DeleteId(oid(INIT_SID, 1)))
        assert seq.value() == "" and seq.total_count() == 1

    def test_insert_between_adjacent_anchors(self):
        seq = ObjectSequence.from_text("abe")
        seq.integrate_insert(InsertId("c", oid(1, 1), oid(INIT_SID, 2), oid(INIT_SID, 3)))
        assert seq.value() == "abce"
        assert "c|1.1|prev=-1.2|next=-1.3|v" in seq.dump()

    def test_concurrent_siblings_both_orders(self):
        x = InsertId("x", oid(0, 1), START, END)
        y = InsertId("y", oid(1, 1), START, END)
        seq1, seq2 = ObjectSequence(), ObjectSequence()
        seq1.integrate_insert(x); seq1.integrate_insert(y)
        seq2.integrate_insert(y); seq2.integrate_insert(x)
        assert seq1.dump() == seq2.dump()
        assert seq1.value() == "xy"  # siblings ordered by object id

    def test_duplicate_insert_ignored(self):
        seq = ObjectSequence.from_text("ab")
        op = InsertId("x", oid(0, 1), START, oid(INIT_SID, 1))
        seq.integrate_insert(op)
        seq.integrate_insert(op)
        assert seq.value() == "xab" and seq.total_count() == 3

    def test_missing_anchor_not_executable(self):
        seq = ObjectSequence.from_text("ab")
        assert not seq.executable(InsertId("x", oid(0, 1), oid(9, 9), END))
        assert not seq.executable(DeleteId(oid(9, 9)))
        assert seq.executable(InsertId("x", oid(0, 1), START, END))

    def test_insert_spanning_tombstoned_initial_chain(self):
        """Regression: anchors separated by a run of tombstoned initial
        objects used to stall the candidate narrowing."""
        seq = ObjectSequence.from_text("bfafdd")
        for k in (2, 3, 4, 5):  # tombstone 'fafd'
            seq.integrate_delete(DeleteId(oid(INIT_SID, k)))
        assert seq.value() == "bd"
        seq.integrate_insert(InsertId("w", oid(1, 5), oid(INIT_SID, 1), oid(INIT_SID, 6)))
        assert seq.value() == "bwd"

    def test_insert_next_to_concurrent_tombstoned_sibling(self):
        seq = ObjectSequence.from_text("ab")
        mid = InsertId("m", oid(0, 1), oid(INIT_SID, 1), oid(INIT_SID, 2))
        seq.integrate_insert(mid)
        seq.integrate_delete(DeleteId(oid(0, 1)))
        # concurrent insert generated elsewhere with the same anchors
        seq.integrate_insert(InsertId("q", oid(1, 1), oid(INIT_SID, 1), oid(INIT_SID, 2)))
        assert seq.value() == "aqb"


class TestWootSite:
    def _fig_sites(self):
        a = WootSite.create(0, "abe")
        b = WootSite.create(1, "abe")
        return a, b

    def test_local_delete_propagates_identifier(self):
        a, _ = self._fig_sites()
        out = a.local(Delete(1))
        assert out.op == DeleteId(oid(INIT_SID, 2))
        assert out.origin == 0 and out.seq == 1
        assert a.state == "ae" and a.istate.value() == "ae"

    def test_local_insert_propagates_identifier(self):
        _, b = self._fig_sites()
        out = b.local(Insert(2, "c"))
        assert out.op == InsertId("c", oid(1, 1), oid(INIT_SID, 2), oid(INIT_SID, 3))
        assert b.state == "abce"

    def test_local_seq_strictly_increases(self):
        a, _ = self._fig_sites()
        first = a.local(Insert(0, "x"))
        second = a.local(Delete(0))
        assert (first.seq, second.seq) == (1, 2)

    def test_figure_walkthrough_remote_sides(self):
        a, b = self._fig_sites()
        o1 = a.local(Delete(1))
        o2 = b.local(Insert(2, "c"))
        assert b.remote(o1) == Delete(1) and b.state == "ace"
        assert a.remote(o2) == Insert(1, "c") and a.state == "ace"
        assert a.istate.dump() == b.istate.dump()

    @pytest.mark.parametrize("op", [
        del_op(0, 1, oid(INIT_SID, 99)),
        ins_op(0, 1, "x", oid(INIT_SID, 4), END),
        ins_op(0, 1, "x", START, oid(INIT_SID, 0)),
    ], ids=["delete-target", "insert-prev", "insert-next"])
    @pytest.mark.parametrize("cls", [WootSite, SkipConversionSite])
    def test_initial_id_beyond_document_refused(self, cls, op):
        """The wire cannot bound an initial id, but the replica can: "abe"
        has -1.1 to -1.3 only. The op is refused with a ValueError before
        anything is integrated, ticked or recorded; as for an op that is not
        executable yet, only the running search-step counter has moved."""
        site = cls.create(1, "abe")
        seen = lambda: (site.state, site.clock, site.istate.dump(), site.istate.n_visible,
                        site.istate.total_count(), repr(site.metrics))
        before = seen()
        with pytest.raises(ValueError, match="beyond the initial document"):
            site.remote(op)
        assert seen() == before

    def test_remote_not_executable_raises(self):
        a, _ = self._fig_sites()
        dangling = ins_op(1, 2, "x", oid(1, 1), END)
        with pytest.raises(NotExecutableError):
            a.remote(dangling)

    def test_concurrent_delete_same_target_yields_noop(self):
        a, b = self._fig_sites()
        da = a.local(Delete(1))
        db = b.local(Delete(1))
        assert a.remote(db) == NoOp()
        assert a.state == "ae" and a.istate.value() == "ae"

    def test_ablation_skips_external_update(self):
        _, b = self._fig_sites()
        a = Site(id=0, engine=SkipConversionSite.create(0, "abe"), external="abe")
        o2 = b.local(Insert(2, "c"))
        assert a.deliver(o2) is None
        assert a.external == "abe"  # visible text left stale
        assert a.engine.istate.value() == "abce"  # internal sequence did integrate
        # the next local op meets the stale text, and the Site refuses it
        with pytest.raises(EngineInvariantError, match="'xabce' != visible text 'xabe'"):
            a.generate(Insert(0, "x"))


class TestOrderInsensitivity:
    def test_all_permutations_small_set(self):
        """Every delivery order of an all-concurrent op set yields one IS."""
        ops = [
            ins_op(0, 1, "x", START, oid(INIT_SID, 1)),
            ins_op(1, 1, "y", START, oid(INIT_SID, 1)),
            del_op(2, 1, oid(INIT_SID, 1)),
        ]
        dumps = set()
        for perm in itertools.permutations(ops):
            seq = ObjectSequence.from_text("a")
            for op in perm:
                if isinstance(op.op, InsertId):
                    seq.integrate_insert(op.op)
                else:
                    seq.integrate_delete(op.op)
            dumps.add(seq.dump())
        assert len(dumps) == 1

    def test_random_sets_with_causal_permutations(self, rng):
        """Generated op sets replayed in random causally-valid orders."""
        for trial in range(30):
            n_sites = rng.randint(2, 3)
            doc = "ab"[: rng.randint(0, 2)]
            gen_sites = {i: WootSite.create(i, doc) for i in range(n_sites)}
            ops = []
            for _ in range(rng.randint(2, 6)):
                s = rng.randrange(n_sites)
                site = gen_sites[s]
                if site.state and rng.random() < 0.4:
                    eo = Delete(rng.randrange(len(site.state)))
                else:
                    eo = Insert(rng.randint(0, len(site.state)), rng.choice("xyz"))
                ops.append(site.local(eo))
            dumps = set()
            for _ in range(10):
                order = ops[:]
                rng.shuffle(order)
                replica = WootSite.create(9, doc)
                pending = order
                while pending:
                    still = []
                    for op in pending:
                        try:
                            replica.remote(op)
                        except NotExecutableError:
                            still.append(op)
                    assert len(still) < len(pending), "requeue did not drain"
                    pending = still
                dumps.add(replica.istate.dump())
            assert len(dumps) == 1, f"trial {trial}"


class TestMetricsCounters:
    def test_init_cost_counts_objects(self):
        site = WootSite.create(0, "abcd")
        assert site.metrics.init_cost == 4

    def test_every_op_records_search_steps(self):
        site = WootSite.create(0, "abcd")
        site.local(Insert(2, "x"))
        site.local(Delete(0))
        assert len(site.metrics.search_steps_per_op) == 2
        assert all(s > 0 for s in site.metrics.search_steps_per_op)

    def test_tombstone_monotonicity(self, monkeypatch):
        totals = []  # the object count after each op, read as it is sampled
        sample = WootSite._sample

        def recording(self, steps_before):
            sample(self, steps_before)
            totals.append(self.istate.total_count())

        monkeypatch.setattr(WootSite, "_sample", recording)
        site = WootSite.create(0, "abcd")
        site.local(Delete(1))
        site.local(Insert(0, "z"))
        site.local(Delete(3))
        assert len(totals) == 3
        assert all(b >= a for a, b in zip(totals, totals[1:]))

    def test_tombstone_count_falling_is_caught_at_the_op(self):
        """A running visible count that drifts up for one op reads as one
        tombstone fewer; the op that samples it fails, even if the drift is
        undone before the end of the run."""
        site = WootSite.create(0, "abcd")
        site.local(Delete(1))
        site.istate.n_visible += 1
        with pytest.raises(AssertionError, match="site 0: tombstone count decreased"):
            site.local(Insert(0, "z"))

    def test_object_count_falling_is_caught_at_the_op(self):
        """An object dropped from the id index lowers the object count; the
        next op fails on it. A delete keeps the tombstone count as it was, so
        only the object count falls."""
        site = WootSite.create(0, "abcd")
        site.local(Delete(1))
        del site.istate.by_id[oid(INIT_SID, 4)]
        with pytest.raises(AssertionError, match="site 0: object count decreased"):
            site.local(Delete(0))


class CountingList(list):
    """A list that counts its `index` calls and records where each began."""

    calls = 0

    def index(self, *args):
        self.calls += 1
        self.starts = getattr(self, "starts", []) + [args[1] if len(args) > 1 else 0]
        return super().index(*args)


def count_index_calls(seq):
    """Make every block's object list a CountingList."""
    for b in seq.blocks:
        b.objects = CountingList(b.objects)


def index_calls(seq):
    """`index` calls on the object lists `count_index_calls` installed."""
    return sum(getattr(b.objects, "calls", 0) for b in seq.blocks)


@contextmanager
def block_size(size):
    """`woot.BLOCK` set to `size` inside the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(woot, "BLOCK", size)
        yield


def block_sizes():
    """Run the loop body once at the default `BLOCK` and once with two
    slots per block as built."""
    for size in (woot.BLOCK, 2):
        with block_size(size):
            yield size


class TestLocateOnce:
    """`index_of`/`contains` remember an id's index until the next insert
    moves it, at the same charge as a fresh walk; a fresh one is one
    `list.index` in the id's own block."""

    def test_memo_follows_inserts_and_survives_deletes(self):
        for _ in block_sizes():
            seq = ObjectSequence.from_text("abc")  # @s a b c @e
            count_index_calls(seq)
            a, b, c = oid(INIT_SID, 1), oid(INIT_SID, 2), oid(INIT_SID, 3)
            assert seq.index_of(c) == 3 and index_calls(seq) == 1
            seq.integrate_insert(InsertId("x", oid(1, 1), a, b))  # lands in front of c
            assert c not in seq.located
            steps = seq.search_steps
            assert seq.index_of(c) == 4
            assert seq.search_steps - steps == 3 + 2  # the old index + 2
            seq.integrate_delete(DeleteId(a))
            assert seq.located[c] == 4
            calls, steps = index_calls(seq), seq.search_steps
            assert seq.index_of(c) == 4
            assert seq.search_steps - steps == 5 and index_calls(seq) == calls

    def test_one_list_walk_per_remote_op(self):
        for _ in block_sizes():
            a, b = WootSite.create(0, "abcd"), WootSite.create(1, "abcd")
            for site in (a, b):
                count_index_calls(site.istate)
            ops = [a.local(Insert(2, "x")), a.local(Delete(0))]
            assert index_calls(a.istate) == 0  # pos_to_id already knows the indices
            b.remote(ops[0])
            assert index_calls(b.istate) == 2  # the two anchors; the new id's index is recorded
            b.remote(ops[1])
            assert index_calls(b.istate) == 3

    def test_objects_take_no_new_attributes(self):
        seq = ObjectSequence.from_text("ab")
        with pytest.raises(AttributeError):
            seq.objects[1].visible = False


class LinearSequence(ObjectSequence):
    """Oracle: the engine with its scans replaced by the linear walks they
    are charged as. Each walks from the start (`objects` for an id, `shown`
    for visibility), counts every slot it visits and compares ids field by
    field; integration and the conversions are inherited, so they run on
    these walks."""

    def index_of(self, oid):
        for i, obj in enumerate(self.objects):
            self.search_steps += 1
            if obj.id == oid:
                return i
        raise UnknownTargetError(f"object id {oid} not in sequence")

    def contains(self, oid):
        for obj in self.objects:
            self.search_steps += 1
            if obj.id == oid:
                return True
        return False

    def nth_visible_index(self, n):
        count = 0
        for i, ch in enumerate(self.shown):
            self.search_steps += 1
            if ch != TOMB:
                if count == n:
                    return i
                count += 1
        raise BoundsError(f"visible index {n} out of range (only {count} visible)")

    def visible_rank(self, index):
        rank = 0
        for ch in self.shown[:index]:
            self.search_steps += 1
            if ch != TOMB:
                rank += 1
        return rank

    def executable(self, op):
        if isinstance(op, DeleteId):
            return self.contains(op.target)
        return self.contains(op.prev) and self.contains(op.next)

    def value(self):
        return "".join(o.character for o, ch in zip(self.objects, self.shown) if ch != TOMB)

    def visible_count(self):
        return sum(1 for ch in self.shown if ch != TOMB)

    def dump(self):
        return per_line_dump(self)


def per_line_dump(seq):
    """Reference dump, formatted line by line: every id through
    `ObjectId.__str__`, and a sentinel's line its id alone."""

    def line(obj, shown):
        if obj.id == START or obj.id == END:
            return str(obj.id)
        return f"{obj.character}|{obj.id}|prev={obj.prev}|next={obj.next}|{'iv' if shown == TOMB else 'v'}"

    return "\n".join(map(line, seq.objects, seq.shown))


ABSENT = oid(7, 99)  # no action below mints site 7's ids

# (action, a, b): a and b pick positions, objects and ids
reference_actions = st.lists(
    st.tuples(
        st.sampled_from([
            "local_insert", "local_delete", "remote_insert", "duplicate_insert", "remote_delete",
            "index_of", "contains", "executable", "nth_visible_index", "visible_rank", "id_to_pos", "value",
        ]),
        st.integers(-3, 30),
        st.integers(0, 30),
    ),
    max_size=40,
)


# Deletes outnumber inserts and positions stay small, so most deletes land:
# blocks empty out and tombstones gather at block ends.
tombstone_actions = st.lists(
    st.tuples(
        st.sampled_from(["local_delete"] * 3 + ["remote_delete"] * 2 + [
            "local_insert", "remote_insert", "nth_visible_index", "visible_rank", "id_to_pos", "value"]),
        st.integers(0, 8),
        st.integers(0, 12),
    ),
    max_size=40,
)


class TestReferenceScans:
    @staticmethod
    def _call(seq, action, a, b, minted):
        """Run one action on `seq`; ids are picked from its own objects, so
        the engine and the oracle, kept in lockstep, pick the same ones."""
        objs = seq.objects
        some_id = objs[a % len(objs)].id if a >= 0 else ABSENT
        if action == "local_insert":
            op = seq.pos_to_id(Insert(a, "x"), site=0, next_seq=minted + 1)
            return seq.integrate_insert(op)
        if action == "local_delete":
            return seq.integrate_delete(seq.pos_to_id(Delete(a), site=0, next_seq=minted + 1))
        if action == "remote_insert":
            i, j = sorted((a % len(objs), b % len(objs)))
            return seq.integrate_insert(InsertId("y", oid(1 + b % 2, minted + 1), objs[i].id, objs[j].id))
        if action == "duplicate_insert":
            o = objs[b % len(objs)]  # a sentinel has no character; an InsertId needs one
            return seq.integrate_insert(InsertId(o.character or "s", o.id, o.prev, o.next))
        if action == "remote_delete":
            return seq.integrate_delete(DeleteId(some_id))
        if action == "index_of":
            return seq.index_of(some_id)
        if action == "contains":
            return seq.contains(some_id)
        if action == "executable":  # anchors in either order, either one possibly absent
            nxt = objs[b % len(objs)].id
            return seq.executable(DeleteId(some_id) if b % 3 == 0 else InsertId("z", oid(9, minted + 1), some_id, nxt))
        if action == "nth_visible_index":
            return seq.nth_visible_index(a)
        if action == "visible_rank":
            return seq.visible_rank(b % (len(objs) + 1))
        if action == "id_to_pos":
            o = objs[b % len(objs)]
            return seq.id_to_pos(DeleteId(o.id) if a % 2 else InsertId("z", o.id, o.prev, o.next))
        return seq.value()

    @staticmethod
    def _outcome(seq, action, a, b, minted):
        before = seq.search_steps
        try:
            result = TestReferenceScans._call(seq, action, a, b, minted)
        except (BoundsError, UnknownTargetError, NotExecutableError, RuntimeError) as e:
            result = type(e)
        return result, seq.search_steps - before

    @given(st.text(alphabet="abc", max_size=6), reference_actions)
    def test_engine_matches_linear_scans(self, doc, actions):
        """Each scan returns what the linear walk returns, or raises the same
        error, and is charged the same number of visits; the running visible
        count and the id index follow the sequence."""
        engine, oracle = ObjectSequence.from_text(doc), LinearSequence.from_text(doc)
        for minted, (action, a, b) in enumerate(actions):
            got = self._outcome(engine, action, a, b, minted)
            assert got == self._outcome(oracle, action, a, b, minted), (action, a, b)
            assert engine.dump() == oracle.dump()
            assert engine.visible_count() == oracle.visible_count() == engine.n_visible
            assert engine.value() == oracle.value()
            assert len(engine.by_id) == len(engine.objects) == len(engine.shown)
            assert all(engine.by_id[o.id] is o for o in engine.objects)
            assert all(engine.objects[i].id == k for k, i in engine.located.items())

    @given(st.text(alphabet="abc", max_size=6), reference_actions)
    def test_engine_matches_linear_scans_in_blocks_of_two(self, doc, actions):
        """The same lockstep run with two slots per block as built, so blocks
        split, tombstone steps cross blocks and placement spans reach over
        two of them."""
        with block_size(2):
            self.test_engine_matches_linear_scans.hypothesis.inner_test(self, doc, actions)

    @given(st.text(alphabet=["a", "b", NON_BMP], max_size=8), tombstone_actions)
    # [@s a] [b c] [d e] [f @e]: [b c] all tombstones, stepped over and counted past
    @example("abcdef", [("local_delete", 1, 0), ("local_delete", 1, 0), ("local_insert", 1, 0),
                        ("nth_visible_index", 2, 0), ("visible_rank", 0, 7), ("id_to_pos", 1, 4), ("value", 0, 0)])
    # [@s a] [b c] [d @e]: tombstones ending the first two blocks
    @example("abcd", [("local_delete", 0, 0), ("local_delete", 1, 0), ("local_insert", 0, 0),
                      ("local_insert", 2, 0), ("nth_visible_index", 1, 0), ("visible_rank", 0, 4)])
    # [@s a] [@e]: a block that holds the end sentinel alone
    @example("a", [("visible_rank", 0, 3), ("local_delete", 0, 0), ("nth_visible_index", 0, 0),
                   ("local_insert", 0, 0), ("nth_visible_index", 0, 0), ("visible_rank", 0, 4)])
    def test_tombstone_heavy_in_blocks_of_two(self, doc, actions):
        """The lockstep run over delete-heavy histories with two slots per
        block as built, and non-BMP characters in the blocks."""
        with block_size(2):
            self.test_engine_matches_linear_scans.hypothesis.inner_test(self, doc, actions)


dump_chars = st.sampled_from(["a", "b", " ", "\n", NON_BMP])
dump_histories = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "remote_insert"]), st.integers(0, 40), st.integers(0, 40), dump_chars),
    max_size=30,
)


class TestDump:
    """`dump()` formats each id once per dump; it must match the line-by-line
    formatting it replaced, byte for byte."""

    @given(st.text(alphabet=["a", "b", NON_BMP], max_size=6), dump_histories)
    @example("", [])
    @example("", [("insert", 0, 0, NON_BMP), ("insert", 0, 0, "a"), ("delete", 1, 0, "a")])
    @example(NON_BMP, [("delete", 0, 0, "a"), ("remote_insert", 0, 1, NON_BMP)])
    def test_matches_per_line_formatting(self, doc, history):
        seq = ObjectSequence.from_text(doc)
        assert seq.dump() == per_line_dump(seq)
        for k, (kind, a, b, ch) in enumerate(history, start=1):
            n, objs = seq.n_visible, seq.objects
            if kind == "delete" and n:
                seq.integrate_delete(seq.pos_to_id(Delete(a % n), site=0, next_seq=k))
            elif kind == "insert":
                seq.integrate_insert(seq.pos_to_id(Insert(a % (n + 1), ch), site=0, next_seq=k))
            elif kind == "remote_insert":  # anchors any two objects apart, tombstones included
                i = a % (len(objs) - 1)
                j = i + 1 + b % (len(objs) - 1 - i)
                seq.integrate_insert(InsertId(ch, oid(1 + k % 2, k), objs[i].id, objs[j].id))
            assert seq.dump() == per_line_dump(seq)

    @given(st.text(alphabet=["a", "b", NON_BMP], max_size=6), dump_histories)
    @example("", [("insert", 0, 0, "a")] * 5 + [("remote_insert", 1, 3, "b"), ("delete", 2, 0, "a")])
    def test_matches_per_line_formatting_in_blocks_of_two(self, doc, history):
        with block_size(2):
            self.test_matches_per_line_formatting.hypothesis.inner_test(self, doc, history)


class TestAnchorSearch:
    """`executable` charges each anchor's walk from the front. In one block
    it looks for `next` from `prev`'s index on, and from the front when
    `next` lies before it; past one block each anchor is one `list.index`
    in its own block."""

    def test_next_before_prev(self):
        for _ in block_sizes():
            ids = [oid(INIT_SID, k) for k in range(1, 5)]  # @s a b c d @e
            op = InsertId("x", oid(1, 1), ids[3], ids[0])  # prev = d at 4, next = a at 1
            engine, oracle = ObjectSequence.from_text("abcd"), LinearSequence.from_text("abcd")
            count_index_calls(engine)
            for seq in (engine, oracle):
                assert seq.executable(op)
                assert seq.search_steps == (4 + 1) + (1 + 1)
            if len(engine.blocks) == 1:  # prev, next from prev's index on, next from the front
                assert index_calls(engine) == 3 and engine.blocks[0].objects.starts == [0, 4, 0]
            else:  # prev, then next, each in its own block
                assert index_calls(engine) == 2
            assert engine.located == {ids[3]: 4, ids[0]: 1}
            for seq in (engine, oracle):
                with pytest.raises(NotExecutableError):
                    seq.integrate_insert(op)

    def test_next_after_prev(self):
        for _ in block_sizes():
            ids = [oid(INIT_SID, k) for k in range(1, 5)]
            op = InsertId("x", oid(1, 1), ids[1], ids[3])  # prev = b at 2, next = d at 4
            engine, oracle = ObjectSequence.from_text("abcd"), LinearSequence.from_text("abcd")
            count_index_calls(engine)
            for seq in (engine, oracle):
                assert seq.executable(op)
                assert seq.search_steps == (2 + 1) + (4 + 1)
            assert index_calls(engine) == 2
            if len(engine.blocks) == 1:
                assert engine.blocks[0].objects.starts == [0, 2]

    def test_absent_anchor(self):
        present = oid(INIT_SID, 1)
        for op in (InsertId("x", oid(1, 1), ABSENT, present), InsertId("x", oid(1, 1), present, ABSENT)):
            engine, oracle = ObjectSequence.from_text("ab"), LinearSequence.from_text("ab")
            assert not engine.executable(op) and not oracle.executable(op)
            assert engine.search_steps == oracle.search_steps
