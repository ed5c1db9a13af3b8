"""Document/operation model: apply, serialization, clocks, causality."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from coedit.model import (
    NUL,
    BoundsError,
    Delete,
    Insert,
    NoOp,
    TimestampedOp,
    VectorClock,
    apply_external,
    concurrent,
    format_op,
    happened_before,
    parse_op,
)
from coedit.ot import ClientOp, ServerOpMsg
from coedit.woot import END, START, DeleteId, InsertId, ObjectId

from conftest import stamp


class TestApplyExternal:
    def test_delete_middle(self):
        assert apply_external("abe", Delete(1)) == "ae"

    def test_insert_middle(self):
        assert apply_external("abe", Insert(2, "c")) == "abce"

    def test_noop_identity(self):
        assert apply_external("ae", NoOp()) == "ae"

    def test_insert_at_end_allowed(self):
        assert apply_external("ab", Insert(2, "c")) == "abc"

    def test_insert_into_empty(self):
        assert apply_external("", Insert(0, "x")) == "x"

    @pytest.mark.parametrize("op", [Insert(4, "x"), Insert(-1, "x"), Delete(3), Delete(-1)])
    def test_out_of_bounds(self, op):
        with pytest.raises(BoundsError):
            apply_external("abc", op)

    @given(st.text(alphabet="abc", max_size=8), st.data())
    def test_insert_then_delete_is_identity(self, text, data):
        p = data.draw(st.integers(0, len(text)))
        assert apply_external(apply_external(text, Insert(p, "x")), Delete(p)) == text


class TestOpText:
    @pytest.mark.parametrize("op,line", [
        (Insert(3, "c"), "I 3 c"),
        (Delete(0), "D 0"),
        (NoOp(), "N"),
    ])
    def test_format(self, op, line):
        assert format_op(op) == line

    @pytest.mark.parametrize("op", [
        Insert(0, "x"), Insert(12, "z"), Delete(7), NoOp(),
        *(Insert(3, c) for c in (" ", "\t", "\n", "\\", "_", "\u00e9", "\U0001F600")),
    ])
    def test_roundtrip(self, op):
        assert parse_op(format_op(op)) == op

    @pytest.mark.parametrize("line", ["", "I 3", "I 3 ab", "D", "Q 1", "N 1"])
    def test_rejects_garbage(self, line):
        with pytest.raises(ValueError):
            parse_op(line)

    def test_insert_single_character_only(self):
        with pytest.raises(ValueError):
            Insert(0, "ab")

    def test_insert_never_carries_nul(self):
        # NUL marks a slot that shows nothing in WOOT's blocks
        with pytest.raises(ValueError, match="other than NUL"):
            Insert(0, "\x00")


class TestVectorClock:
    def test_missing_entry_is_zero(self):
        assert VectorClock({}).get(3) == 0
        assert VectorClock({1: 2, 3: 0}).entries == {1: 2}

    def test_merge_is_entrywise_max(self):
        a = VectorClock({0: 2, 1: 1})
        b = VectorClock({1: 3, 2: 1})
        assert a.merge(b) == VectorClock({0: 2, 1: 3, 2: 1})

    def test_tick(self):
        assert VectorClock({0: 1}).tick(0) == VectorClock({0: 2})
        assert VectorClock().tick(4) == VectorClock({4: 1})

    def test_equality_ignores_zero_padding(self):
        assert VectorClock({0: 1, 1: 0}) == VectorClock({0: 1})

    @given(
        st.dictionaries(st.integers(0, 6), st.integers(0, 5), max_size=5),
        st.dictionaries(st.integers(0, 6), st.integers(0, 5), max_size=5),
        st.integers(0, 7),
    )
    def test_merge_and_tick_build_plain_clocks(self, a, b, site):
        """merge and tick skip the zero strip; their results must still be
        the clocks the public constructor builds, equal and hashing alike."""
        merged, ticked = VectorClock(a).merge(VectorClock(b)), VectorClock(a).tick(site)
        assert merged.entries == {s: max(a.get(s, 0), b.get(s, 0)) for s in {*a, *b} if max(a.get(s, 0), b.get(s, 0))}
        assert ticked.get(site) == a.get(site, 0) + 1
        for result in (merged, ticked):
            plain = VectorClock(dict(result.entries))
            assert result == plain and hash(result) == hash(plain)
            assert 0 not in result.entries.values()

    def test_timestamped_op_requires_origin_entry(self):
        with pytest.raises(ValueError):
            TimestampedOp(Delete(0), origin=0, seq=2, clock=VectorClock({0: 1}))
        with pytest.raises(ValueError):
            TimestampedOp(Delete(0), origin=0, seq=0, clock=VectorClock({}))


CLOCK = VectorClock({0: 1})
RECORDS = [
    Insert(0, "x"),
    Delete(0),
    NoOp(),
    CLOCK,
    TimestampedOp(Insert(0, "x"), 0, 1, CLOCK),
    ServerOpMsg(Insert(0, "x"), 0, 1, 0),
    ClientOp(Insert(0, "x"), 0, 1, 0),
    InsertId("x", ObjectId(0, 1), START, END),
    DeleteId(ObjectId(0, 1)),
]


class TestRecords:
    """Ops, clocks and stamps, WOOT's identifier ops among them, are
    immutable tuple records whose every public constructor checks its
    fields."""

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_fields_cannot_be_set(self, record):
        for name in (*record._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 1)
        assert record == type(record)._make(record)

    @pytest.mark.parametrize("build", [
        lambda: Insert(0, "ab"),
        lambda: Insert(0, NUL),
        lambda: Insert._make((0, "ab")),
        lambda: Insert(0, "x")._replace(character="ab"),
        lambda: TimestampedOp(Insert(0, "x"), 0, 0, CLOCK),
        lambda: TimestampedOp._make((Insert(0, "x"), 0, 0, CLOCK)),
        lambda: ServerOpMsg(Insert(0, "x"), 0, 1, 0)._replace(seq=0),
        lambda: ClientOp(Insert(0, "x"), 0, 1, 0)._replace(delivered=-1),
        lambda: InsertId("xy", ObjectId(0, 1), START, END),
        lambda: InsertId._make(("", ObjectId(0, 1), START, END)),
        lambda: InsertId("x", ObjectId(0, 1), START, END)._replace(character=NUL),
    ], ids=["insert-two-chars", "insert-nul", "insert-make", "insert-replace", "stamp-seq-0", "stamp-make", "server-op-replace",
            "client-op-replace", "insert-id-two-chars", "insert-id-make", "insert-id-replace"])
    def test_every_constructor_checks(self, build):
        with pytest.raises(ValueError):
            build()

    def test_clock_make_and_replace_drop_zero_counts(self):
        assert VectorClock._make(({0: 1, 1: 0},)).entries == {0: 1}
        assert CLOCK._replace(entries={2: 0, 3: 4}).entries == {3: 4}

    def test_server_op_repr_shows_index(self):
        assert repr(RECORDS[5]).endswith(", index=0)")

    def test_server_op_never_equals_its_stamp(self):
        stamped, served = RECORDS[4], RECORDS[5]
        assert stamped[:3] == served[:3] and stamped != served and served != stamped

    def test_records_compare_as_tuples(self):
        """What the model docstring warns of: equality is the tuple's, and
        the field-less NoOp is falsy."""
        assert Delete(3) == (3,) and Insert(0, "x") == (0, "x")
        assert not NoOp() and Delete(0) and Insert(0, "x")


class TestCausality:
    def test_strict_dominance(self):
        a = stamp(Delete(0), 0, 1)
        b = stamp(Delete(0), 1, 1, {0: 1})
        assert happened_before(a, b)
        assert not happened_before(b, a)

    def test_incomparable(self):
        a = stamp(Delete(0), 0, 1)
        b = stamp(Insert(0, "x"), 1, 1)
        assert not happened_before(a, b)
        assert not happened_before(b, a)
        assert concurrent(a, b)

    def test_equal_clocks_not_before(self):
        a = stamp(Delete(0), 0, 1, {1: 1})
        b = stamp(Delete(0), 1, 1, {0: 1})
        assert not happened_before(a, b) and not happened_before(b, a)

    def test_three_pairwise_incomparable(self):
        ops = [stamp(Insert(0, "x"), s, 1) for s in range(3)]
        for a, b in itertools.combinations(ops, 2):
            assert concurrent(a, b)

    def test_exactly_one_relation_holds(self, rng):
        """For any pair: a->b, b->a, or concurrent — exactly one."""
        for _ in range(300):
            clocks = []
            for origin in (0, 1):
                entries = {s: rng.randint(0, 3) for s in range(3)}
                entries[origin] = rng.randint(1, 3)
                clocks.append(stamp(Insert(0, "x"), origin, entries[origin],
                                    {s: n for s, n in entries.items() if s != origin}))
            a, b = clocks
            relations = [happened_before(a, b), happened_before(b, a), concurrent(a, b)]
            assert sum(relations) == 1

    def test_happened_before_is_strict_partial_order(self, rng):
        """Irreflexive + transitive over random clock triples."""
        def rand_op(origin):
            entries = {s: rng.randint(0, 4) for s in range(3)}
            entries[origin] = max(1, entries[origin])
            return stamp(Insert(0, "x"), origin, entries[origin],
                         {s: n for s, n in entries.items() if s != origin})

        for _ in range(300):
            a, b, c = rand_op(0), rand_op(1), rand_op(2)
            assert not happened_before(a, a)
            if happened_before(a, b) and happened_before(b, c):
                assert happened_before(a, c)
