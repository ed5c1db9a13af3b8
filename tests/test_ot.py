"""Op-buffer engine: the four transformation functions, TP1, sites, GC,
and the sequencer (server-based) control path."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import coedit.model
import coedit.ot
from coedit.harness import FuzzSpec, Scenario, ScenarioError, fuzz, run_scenario
from coedit.metrics import MetricsBundle
from coedit.model import BoundsError, Delete, Insert, NoOp, VectorClock, apply_external
from coedit.netsim import FixedLatency, UniformLatency
from coedit.ot import (
    COLLECT_EVERY,
    Ack,
    ClientOp,
    ContextMismatchError,
    OtSite,
    SequencerClient,
    SequencerServer,
    ServerOpMsg,
    fold,
    transform,
    xform,
)

from conftest import both_orders, random_op, stamp


def fields(replica) -> tuple:
    """What a refused message must leave unchanged: text, counts (as a
    clock), pending entries (copied, as folds rebase them in place), buffer
    and how many messages it has delivered."""
    return (replica.state, replica.clock, [list(e) for e in replica.pending], list(replica.buffer),
            replica.delivered)


def snapshot(server) -> tuple:
    """What a refused client op must leave unchanged at the server: text,
    history length, bridge entries (copied) and the per-client counts."""
    return (server.state, server.history_len, {c: [list(e) for e in b] for c, b in server.bridges.items()},
            dict(server.sequenced))


class TestTransformFunctions:
    """Each rule through the pair form: both rebased ops of the pair."""

    # insert-insert -------------------------------------------------------
    def test_ii_left_of(self):
        assert xform(Insert(1, "x"), Insert(3, "y"), 1, 2) == (Insert(1, "x"), Insert(4, "y"))

    def test_ii_right_of(self):
        assert xform(Insert(3, "x"), Insert(1, "y"), 1, 2) == (Insert(4, "x"), Insert(1, "y"))
        assert both_orders("abcde", Insert(3, "x"), Insert(1, "y"))[0] == both_orders("abcde", Insert(3, "x"), Insert(1, "y"))[1]

    def test_ii_tie_lower_site_wins(self):
        assert xform(Insert(2, "x"), Insert(2, "y"), 1, 2) == (Insert(2, "x"), Insert(3, "y"))
        assert xform(Insert(2, "y"), Insert(2, "x"), 2, 1) == (Insert(3, "y"), Insert(2, "x"))

    # insert-delete -------------------------------------------------------
    def test_id_figure_walkthrough(self):
        assert xform(Insert(2, "c"), Delete(1), 1, 2) == (Insert(1, "c"), Delete(1))

    def test_id_left_of_delete(self):
        assert xform(Insert(0, "x"), Delete(5), 1, 2) == (Insert(0, "x"), Delete(6))

    def test_id_boundary_equal(self):
        assert xform(Insert(3, "x"), Delete(3), 1, 2) == (Insert(3, "x"), Delete(4))

    # delete-insert -------------------------------------------------------
    def test_di_figure_walkthrough(self):
        assert xform(Delete(1), Insert(2, "c"), 1, 2) == (Delete(1), Insert(1, "c"))

    def test_di_shift_right(self):
        assert xform(Delete(2), Insert(1, "x"), 1, 2) == (Delete(3), Insert(1, "x"))
        one, two = both_orders("abcde", Delete(2), Insert(1, "x"))
        assert one == two

    def test_di_boundary_equal(self):
        assert xform(Delete(1), Insert(1, "x"), 1, 2) == (Delete(2), Insert(1, "x"))
        one, two = both_orders("abcde", Delete(1), Insert(1, "x"))
        assert one == two

    # delete-delete -------------------------------------------------------
    def test_dd_left(self):
        assert xform(Delete(1), Delete(3), 1, 2) == (Delete(1), Delete(2))

    def test_dd_right_shifts(self):
        assert xform(Delete(3), Delete(1), 1, 2) == (Delete(2), Delete(1))
        one, two = both_orders("abcde", Delete(3), Delete(1))
        assert one == two

    def test_dd_same_target_noop(self):
        assert xform(Delete(2), Delete(2), 1, 2) == (NoOp(), NoOp())

    def test_non_op_rejected(self):
        with pytest.raises(TypeError):
            transform("I 0 x", Insert(0, "y"), 1, 2)
        with pytest.raises(TypeError):
            transform(Delete(0), None, 1, 2)
        with pytest.raises(TypeError):
            xform(Insert(0, "y"), None, 1, 2)

    def test_fold_notes_insert_ties(self):
        """fold notes an insert tie; counting the entries is left to the
        caller, once the folded op has executed."""
        metrics = MetricsBundle()
        fold(metrics, Insert(1, "x"), 0, [[Delete(1), 1, 1], [Insert(2, "y"), 1, 2]])
        assert not metrics.insert_tie_seen
        fold(metrics, Insert(1, "x"), 0, [[Insert(1, "y"), 1, 3]])
        assert metrics.insert_tie_seen
        assert metrics.transform_total == 0 and metrics.c_samples == []

    def test_noop_passthrough(self):
        assert transform(NoOp(), Insert(0, "x"), 1, 2) == NoOp()
        assert transform(Delete(1), NoOp(), 1, 2) == Delete(1)
        assert xform(NoOp(), Insert(0, "x"), 1, 2) == (NoOp(), Insert(0, "x"))
        assert xform(Delete(1), NoOp(), 1, 2) == (Delete(1), NoOp())


@st.composite
def state_and_pair(draw):
    state = draw(st.text(alphabet="abcdef", max_size=12))
    def op(site_marker):
        if state and draw(st.booleans()):
            return Delete(draw(st.integers(0, len(state) - 1)))
        return Insert(draw(st.integers(0, len(state))), draw(st.sampled_from("xyz")))
    return state, op(1), op(2)


class TestTP1:
    @settings(max_examples=400, deadline=None)
    @given(state_and_pair())
    def test_both_orders_agree(self, case):
        state, a, b = case
        one, two = both_orders(state, a, b)
        assert one == two

    def test_all_four_combinations_sampled(self, rng):
        """Deterministic sweep covering every op-type pair at small lengths."""
        for length in range(0, 6):
            state = "abcdef"[:length]
            inserts = [Insert(p, "x") for p in range(length + 1)]
            deletes = [Delete(p) for p in range(length)]
            for a in inserts + deletes:
                for b in inserts + deletes:
                    b2 = Insert(b.position, "y") if isinstance(b, Insert) else b
                    one, two = both_orders(state, a, b2)
                    assert one == two, (state, a, b2)

    def test_rebased_ops_are_exact_checked_records(self):
        """xform builds rebased ops without the constructor's check; on the
        grid above, each result is of the exact type its rule gives (NoOp
        only for one target deleted twice, always the same one) and equals
        the record the checking constructor builds from its fields."""
        noops = set()
        for length in range(0, 6):
            inserts = [Insert(p, "x") for p in range(length + 1)]
            deletes = [Delete(p) for p in range(length)]
            for a in inserts + deletes:
                for b in [Insert(p, "y") for p in range(length + 1)] + deletes:
                    for op, other, rebased in zip((a, b), (b, a), xform(a, b, 1, 2)):
                        twice_deleted = type(op) is type(other) is Delete and op.position == other.position
                        assert type(rebased) is (NoOp if twice_deleted else type(op)), (a, b)
                        assert rebased == type(rebased)(*rebased), (a, b)
                        if twice_deleted:
                            noops.add(id(rebased))
        assert len(noops) == 1

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_pair_form_is_symmetric(self, data):
        """Over every type pair, NoOp included, with same-position ties and
        both site orders: the pair of (b, a) is the pair of (a, b) reversed,
        and TP1 holds."""
        state = data.draw(st.text(alphabet="abc", max_size=4))
        def op(char):
            kinds = ["insert", "noop"] + (["delete"] if state else [])
            kind = data.draw(st.sampled_from(kinds))
            if kind == "insert":
                return Insert(data.draw(st.integers(0, len(state))), char)
            return Delete(data.draw(st.integers(0, len(state) - 1))) if kind == "delete" else NoOp()
        a, b = op("x"), op("y")
        s_a, s_b = data.draw(st.sampled_from([(1, 2), (2, 1)]))
        assert xform(a, b, s_a, s_b) == xform(b, a, s_b, s_a)[::-1]
        assert xform(a, b, s_a, s_b)[0] == transform(a, b, s_a, s_b)
        one, two = both_orders(state, a, b, s_a, s_b)
        assert one == two


class TestTP2:
    def test_counterexample_is_why_symmetric_ot_stops_at_two_sites(self):
        """TP2 asks that transforming an op past two concurrent ops gives one
        result in either order. xform breaks it: with I(1,'x') from site 1,
        D(0) from site 2 and I(0,'x') from site 3, site 3's insert lands at
        position 0 past site 1's op then site 2's, and at 1 the other way.
        Two symmetric sites only ever fold past one peer's ops, so they need
        TP1 alone; a third site would need TP2, so symmetric OT refuses it
        and larger sessions go through the sequencer."""
        a, b, c = Insert(1, "x"), Delete(0), Insert(0, "x")
        past_a_then_b = transform(transform(c, a, 3, 1), transform(b, a, 2, 1), 3, 2)
        past_b_then_a = transform(transform(c, b, 3, 2), transform(a, b, 1, 2), 3, 1)
        assert (past_a_then_b, past_b_then_a) == (Insert(0, "x"), Insert(1, "x"))
        three = Scenario("ab", 3, "causal", FixedLatency(1), 0, fuzz=FuzzSpec(n_ops=4))
        with pytest.raises(ScenarioError, match="symmetric ot supports 2 sites"):
            run_scenario(three, "ot")


class TestOtSite:
    def test_local_timestamps_and_buffers(self):
        """A local op carries its seq and the count of peer ops delivered,
        no clock, and is logged as the very record sent."""
        a = OtSite(site=0, state="abe")
        o1 = a.local(Delete(1))
        assert a.state == "ae"
        assert type(o1) is ClientOp and o1 == (Delete(1), 0, 1, 0) and a.counts == {0: 1}
        assert a.buffer == [o1] and a.buffer[0] is o1
        assert a.metrics.transform_total == 0

    def test_second_local_op_increments_seq(self):
        a = OtSite(site=0, state="abe")
        a.local(Delete(1))
        o2 = a.local(Insert(0, "x"))
        assert o2.seq == 2 and len(a.buffer) == 2

    def test_figure_walkthrough_both_sides(self):
        """Two sites on "abe": D(1) at A concurrent with I(2,'c') at B."""
        a = OtSite(site=0, state="abe")
        b = OtSite(site=1, state="abe")
        o1 = a.local(Delete(1))
        o2 = b.local(Insert(2, "c"))
        eo_a = a.remote(o2)
        assert eo_a == Insert(1, "c") and a.state == "ace"
        assert [t.op for t in a.buffer] == [Delete(1), Insert(1, "c")]
        eo_b = b.remote(o1)
        assert eo_b == Delete(1) and b.state == "ace"
        assert [t.op for t in b.buffer] == [Insert(2, "c"), Delete(1)]

    def test_remote_causally_after_applies_unchanged(self):
        a = OtSite(site=0, state="ab")
        o1 = a.local(Insert(2, "c"))
        later = ClientOp(Delete(0), 1, 1, 1)  # the peer had delivered o1
        assert a.remote(later) == Delete(0)
        assert a.metrics.transform_total == 0

    def test_context_mismatch_detected(self):
        """A pending local op causally *after* the remote op breaks the
        engine's precondition (causally-ready, exactly-once delivery) and
        must be reported."""
        a = OtSite(site=0, state="ab")
        o1 = OtSite(site=1, state="ab").local(Insert(0, "q"))
        a.remote(o1)
        a.local(Delete(0))  # pending, and causally after o1
        with pytest.raises(ContextMismatchError):
            a.remote(o1)

    def test_peer_op_acknowledges_pending(self):
        a = OtSite(site=0, state="ab")
        b = OtSite(site=1, state="ab")
        o1, o2 = a.local(Insert(0, "x")), a.local(Delete(2))
        b.remote(o1)
        assert len(a.pending) == 2
        a.remote(b.local(Insert(0, "y")))  # b had seen o1 only
        assert a.pending == [[Delete(3), 0, o2.seq]]  # rebased past b's insert
        b.remote(o2)
        a.remote(b.local(Delete(0)))
        assert a.pending == [] and a.state == b.state

    def test_third_site_rejected(self):
        """Once site 1's op is delivered, site 1 is the peer: an op from site
        2 is refused with nothing changed."""
        a = OtSite(site=0, state="ab")
        a.remote(ClientOp(Insert(0, "q"), 1, 1, 0))
        before = fields(a)
        with pytest.raises(ContextMismatchError, match=r"remote \(2, 1\) is from a third site"):
            a.remote(ClientOp(Insert(0, "r"), 2, 1, 0))
        assert fields(a) == before

    def test_ack_beyond_own_ops_refused(self):
        """Site 0 has made one op. A peer op claiming five of them would drop
        the pending insert and apply unfolded, giving 'xyab'; it is refused
        with nothing changed, and the true clock gives 'xayb'."""
        a = OtSite(site=0, state="ab")
        a.local(Insert(0, "x"))
        before = fields(a)
        with pytest.raises(ContextMismatchError, match="claims 5 ops of site 0, which made 1"):
            a.remote(ClientOp(Insert(1, "y"), 1, 1, 5))
        assert fields(a) == before
        assert a.remote(ClientOp(Insert(1, "y"), 1, 1, 0)) == Insert(2, "y") and a.state == "xayb"

    def test_refused_op_drops_no_acknowledged_op(self):
        """A peer op that acknowledges the pending insert but lies beyond the
        text is refused with every field as it was, the pending insert
        included; had it been dropped, the correct op would replay unfolded
        as Insert(1, 'y'), giving 'xyab'."""
        a = OtSite(site=0, state="ab")
        a.local(Insert(0, "x"))
        before = fields(a)
        with pytest.raises(BoundsError):
            a.remote(ClientOp(Insert(9, "y"), 1, 1, 1))
        assert fields(a) == before
        assert a.remote(ClientOp(Insert(1, "y"), 1, 1, 0)) == Insert(2, "y") and a.state == "xayb"

    def test_causal_mismatch_refused_before_pruning(self):
        """A remote claiming to have seen the pending insert, yet causally
        before the pending delete, is refused before the insert is pruned."""
        a = OtSite(site=0, state="ab")
        a.local(Insert(0, "x"))
        a.remote(ClientOp(Insert(0, "q"), 1, 1, 0))  # had not seen the insert
        a.local(Delete(0))  # causally after the peer's op
        before = fields(a)
        with pytest.raises(ContextMismatchError, match=r"remote \(1, 1\) is not the next op of site 1, which sent 1"):
            a.remote(ClientOp(Insert(0, "q"), 1, 1, 1))
        assert fields(a) == before

    def test_duplicate_and_gap_refused(self):
        """The peer's op must be its next: a second delivery of seq 1 (which
        gave 'qqab') and then seq 3 before seq 2 are refused with nothing
        changed; seq 2 then applies."""
        a = OtSite(site=0, state="ab")
        a.remote(ClientOp(Insert(0, "q"), 1, 1, 0))
        before = fields(a)
        with pytest.raises(ContextMismatchError, match=r"remote \(1, 1\) is not the next op of site 1, which sent 1"):
            a.remote(ClientOp(Insert(0, "q"), 1, 1, 0))
        assert fields(a) == before
        with pytest.raises(ContextMismatchError, match=r"remote \(1, 3\) is not the next op of site 1, which sent 1"):
            a.remote(ClientOp(Insert(0, "r"), 1, 3, 0))
        assert fields(a) == before
        assert a.remote(ClientOp(Insert(2, "s"), 1, 2, 0)) == Insert(2, "s") and a.state == "qasb"

    def test_symmetric_session_never_compares_clocks(self, monkeypatch):
        """Order is checked by one counter per peer: a fuzzed symmetric
        session runs clean with `happened_before` unusable."""
        def refuse(a, b):
            raise AssertionError("happened_before called")

        monkeypatch.setattr(coedit.ot, "happened_before", refuse)
        monkeypatch.setattr(coedit.model, "happened_before", refuse)
        scenario = Scenario("abcdef", 2, "causal", UniformLatency(1, 8), 3, fuzz=FuzzSpec(n_ops=80, window=4))
        report = run_scenario(scenario, "ot")
        assert report.ok and report.metrics.transform_total > 0


    def test_symmetric_session_builds_no_clock_per_op(self, monkeypatch):
        """A peer counts in place: a fuzzed symmetric session runs clean with
        `VectorClock.tick` and `VectorClock.merge` unusable."""
        def refuse(*args):
            raise AssertionError("a clock was ticked or merged")

        monkeypatch.setattr(VectorClock, "tick", refuse)
        monkeypatch.setattr(VectorClock, "merge", refuse)
        scenario = Scenario("abcdef", 2, "causal", UniformLatency(1, 8), 5, fuzz=FuzzSpec(n_ops=120, window=4))
        report = run_scenario(scenario, "ot")
        assert report.ok and report.metrics.transform_total > 0

    def test_remote_counts_the_peer_op_and_logs_its_record(self):
        """In fuzzed 2-site sessions with random delivery, each delivery
        counts the peer's op in place, and logs the record of the op as
        executed, with the message's counters."""
        for seed in range(40):
            rng = random.Random(seed)
            sites = [OtSite(site=0, state="abc"), OtSite(site=1, state="abc")]
            in_flight = {0: [], 1: []}  # messages to site i, in sending order
            for _ in range(60):
                i = rng.randrange(2)
                if in_flight[i] and rng.random() < 0.5:
                    msg = in_flight[i].pop(0)
                    counts, delivered = sites[i].counts, sites[i].delivered
                    before = dict(counts)
                    op = sites[i].remote(msg)
                    assert sites[i].counts is counts and counts == {**before, msg.origin: msg.seq}, seed
                    assert sites[i].delivered == delivered + 1 == msg.seq, seed
                    logged = sites[i].buffer[-1]
                    assert type(logged) is ClientOp and logged == ClientOp(op, msg.origin, msg.seq, msg.delivered), seed
                else:
                    in_flight[1 - i].append(sites[i].local(random_op(rng, len(sites[i].state))))
            for i in (0, 1):
                for msg in in_flight[i]:
                    sites[i].remote(msg)
            assert sites[0].state == sites[1].state, seed


class TestRefusedOpCounts:
    @pytest.mark.parametrize("replica", ["symmetric", "client", "server"])
    def test_refused_op_is_not_counted(self, replica):
        """An op whose apply is refused, after a fold past one entry, leaves
        the C samples and the transform count as they were."""
        if replica == "symmetric":
            engine = OtSite(site=0, state="ab")
            engine.local(Insert(0, "x"))
            refuse = lambda: engine.remote(ClientOp(Insert(9, "y"), 1, 1, 0))
        elif replica == "client":
            engine = SequencerClient(site=0, state="ab")
            engine.local(Insert(0, "x"))
            refuse = lambda: engine.remote(ServerOpMsg(Insert(9, "y"), 1, 1, 0))
        else:
            engine = SequencerServer(client_ids=[0, 1], state="ab")
            engine.process(1, ClientOp(Insert(2, "y"), 1, 1, 0))  # client 0's bridge: I(2, y)
            refuse = lambda: engine.process(0, ClientOp(Insert(9, "x"), 0, 1, 0))
        before = (list(engine.metrics.c_samples), engine.metrics.transform_total)
        with pytest.raises(BoundsError):
            refuse()
        assert (engine.metrics.c_samples, engine.metrics.transform_total) == before


class TestGc:
    def _two_site_session(self):
        a = OtSite(site=0, state="abe")
        b = OtSite(site=1, state="abe")
        o1 = a.local(Delete(1))
        o2 = b.local(Insert(2, "c"))
        a.remote(o2)
        b.remote(o1)
        return a, b

    def test_full_coverage_empties_buffer(self):
        a, b = self._two_site_session()
        stability = {0: a.clock, 1: b.clock}
        assert a.gc(stability) == 2
        assert a.buffer == []

    def test_partial_coverage_retains(self):
        a, b = self._two_site_session()
        stability = {0: a.clock, 1: VectorClock({1: 1})}  # site 1 missing O1
        assert a.gc(stability) == 1
        assert [t.key() for t in a.buffer] == [(0, 1)]

    def test_empty_buffer_returns_zero(self):
        a = OtSite(site=0, state="x")
        assert a.gc({0: VectorClock()}) == 0

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_every_clock_oracle(self, data):
        """gc keeps exactly the ops that some site's clock does not cover."""
        sites = data.draw(st.integers(1, 5))
        site_ids = st.integers(0, sites - 1)
        keys = data.draw(st.lists(st.tuples(site_ids, st.integers(1, 6)), max_size=30))
        clocks = data.draw(st.lists(st.dictionaries(site_ids, st.integers(0, 6)), min_size=sites, max_size=sites))
        stability = {i: VectorClock(c) for i, c in enumerate(clocks)}
        a = OtSite(site=0)
        a.buffer = [stamp(Delete(0), origin, seq) for origin, seq in keys]
        expected = [b for b in a.buffer if not all(clk.get(b.origin) >= b.seq for clk in stability.values())]
        assert a.gc(stability) == len(keys) - len(expected)
        assert a.buffer == expected


class TestSequencer:
    def _session(self, n_sites, script, initial=""):
        """Run scripted (site, op) pairs through server+clients synchronously,
        interleaving delivery per the given schedule."""
        ids = list(range(n_sites))
        clients = {i: SequencerClient(site=i, state=initial) for i in ids}
        server = SequencerServer(client_ids=ids, state=initial)
        outbox = []
        for site, eo in script:
            outbox.append((site, clients[site].local(eo)))
        for site, msg in outbox:
            out = server.process(site, msg)
            for c in clients.values():
                c.remote(out)
        return server, clients

    def test_concurrent_pair_converges(self):
        server, clients = self._session(2, [(0, Delete(1)), (1, Insert(2, "c"))], initial="abe")
        states = {c.state for c in clients.values()}
        assert states == {"ace"} and server.state == "ace"

    def test_own_echo_returns_none(self):
        client = SequencerClient(site=0, state="ab")
        server = SequencerServer(client_ids=[0], state="ab")
        msg = client.local(Insert(2, "c"))
        out = server.process(0, msg)
        assert client.remote(out) is None
        assert client.pending == []

    def test_local_op_is_one_message(self):
        """The client logs the very ClientOp it sends, stamped with its seq
        and the stream messages it has delivered, and holds it as a pending
        entry; the server answers with one ServerOpMsg carrying the same op
        and seq."""
        client = SequencerClient(site=0, state="ab")
        msg = client.local(Insert(2, "c"))
        assert type(msg) is ClientOp and msg == (Insert(2, "c"), 0, 1, 0)
        assert client.buffer[-1] is msg and client.pending[-1] == [Insert(2, "c"), 0, msg.seq]
        out = SequencerServer(client_ids=[0], state="ab").process(0, msg)
        assert type(out) is ServerOpMsg
        assert (out.op, out.key(), out.index) == (Insert(2, "c"), (0, 1), 0)

    def test_seen_beyond_history_rejected(self):
        """A client op that claims more stream messages delivered than the
        server has sent is refused with every field as it was; cutting the
        bridge there would fold it past nothing."""
        server = SequencerServer(client_ids=[0, 1], state="ab")
        server.process(0, SequencerClient(site=0, state="ab").local(Insert(0, "x")))
        late = SequencerClient(site=1, state="ab").local(Delete(1))  # of 'b', before 'x' was seen
        before = snapshot(server)
        for delivered in (2, 10**9):
            with pytest.raises(ContextMismatchError, match=f"client 1 claims {delivered} stream messages delivered, of 1 sent"):
                server.process(1, late._replace(delivered=delivered))
            assert snapshot(server) == before
        server.process(1, late)
        assert server.state == "xa"

    def test_op_from_a_site_that_is_no_client_refused(self):
        """An op from a site outside `client_ids` is refused with every field
        as it was (it raised KeyError from the bridge lookup)."""
        server = SequencerServer(client_ids=[0, 1], state="ab")
        server.process(0, ClientOp(Insert(0, "x"), 0, 1, 0))
        before = snapshot(server)
        with pytest.raises(ContextMismatchError, match="site 5, which is not a client"):
            server.process(5, ClientOp(Insert(0, "y"), 5, 1, 0))
        assert snapshot(server) == before

    def test_client_logs_an_unmoved_server_op_as_its_message(self):
        """A server op that no pending op moves is logged as the message
        itself; one the fold rebases is logged as a ServerOpMsg of the
        executed form, with the message's seq and index."""
        client = SequencerClient(site=0, state="ab")
        unmoved = ServerOpMsg(Insert(0, "y"), 1, 1, 0)
        client.remote(unmoved)
        assert client.buffer[-1] is unmoved
        client.local(Insert(0, "x"))  # pending, before the server op below
        moved = ServerOpMsg(Delete(2), 1, 2, 1)
        assert client.remote(moved) == Delete(3) and client.state == "xya"
        logged = client.buffer[-1]
        assert type(logged) is ServerOpMsg and logged == ServerOpMsg(Delete(3), 1, 2, moved.index)

    @pytest.mark.parametrize("echo", ["nothing-pending", "not-oldest"])
    def test_bad_echo_refused_before_any_change(self, echo):
        """An echo of an own op must be of the oldest pending one; any other
        is refused with every field as it was."""
        client = SequencerClient(site=0, state="ab")
        server = SequencerServer(client_ids=[0], state="ab")
        if echo == "nothing-pending":
            client.remote(server.process(0, client.local(Insert(2, "c"))))
            bad = ServerOpMsg(Insert(0, "z"), 0, 2, 1)
        else:
            client.local(Insert(2, "c"))
            second = client.local(Delete(0))
            bad = ServerOpMsg(second.op, 0, second.seq, 0)
        before = fields(client)
        with pytest.raises(ContextMismatchError, match="is not of its oldest pending op"):
            client.remote(bad)
        assert fields(client) == before

    @pytest.mark.parametrize("case", ["duplicate", "gap", "other-origin"])
    def test_client_op_not_its_next_refused_before_any_change(self, case):
        """The server sequences each client's ops once and in order, and only
        from that client: a second delivery (which gave 'xxab'), a seq 2
        whose seq 1 never arrived, or another client's op is refused with
        the server's fields as they were."""
        server = SequencerServer(client_ids=[0, 1], state="ab")
        c0, c1 = SequencerClient(site=0, state="ab"), SequencerClient(site=1, state="ab")
        first = c0.local(Insert(0, "x"))
        server.process(1, c1.local(Insert(2, "y")))  # client 0's bridge holds one entry
        if case == "duplicate":
            server.process(0, first)
            sender, bad = 0, first
        elif case == "gap":
            sender, bad = 0, c0.local(Delete(0))
        else:  # client 0's seq 2, sent as client 1's next
            sender, bad = 1, c0.local(Delete(0))

        before = snapshot(server)
        with pytest.raises(ContextMismatchError, match=r"from client %d is not its next" % sender):
            server.process(sender, bad)
        assert snapshot(server) == before
        if case != "duplicate":
            server.process(0, first)
        assert server.state == "xaby"

    def test_client_refused_op_is_not_delivered(self):
        """A server op the client cannot execute is refused with every field
        as it was, `delivered` included, so the stream's correct op at that
        index is then accepted."""
        client = SequencerClient(site=0, state="ab")
        before = fields(client)
        with pytest.raises(BoundsError):
            client.remote(ServerOpMsg(Insert(9, "x"), 1, 1, 0))
        assert fields(client) == before
        assert client.remote(ServerOpMsg(Insert(1, "x"), 1, 1, 0)) == Insert(1, "x")
        assert client.state == "axb" and client.delivered == 1

    @pytest.mark.parametrize("bridged", [False, True])
    def test_server_refused_op_is_not_sequenced(self, bridged):
        """A client op the server cannot apply is refused with its fields as
        they were, bridge entries included (the fold would rebase a bridged
        insert past it), so the client's correct op at that seq is then
        sequenced."""
        server = SequencerServer(client_ids=[0, 1], state="ab")
        if bridged:
            server.process(1, SequencerClient(site=1, state="ab").local(Insert(2, "y")))  # client 0's bridge: I(2, y)
        before = snapshot(server)
        with pytest.raises(BoundsError):
            server.process(0, ClientOp(Insert(-1 if bridged else 9, "x"), 0, 1, 0))
        assert snapshot(server) == before
        out = server.process(0, ClientOp(Insert(1, "x"), 0, 1, 0))
        assert out.index == int(bridged) and server.sequenced == {0: 1, 1: int(bridged)}
        assert server.state == ("axby" if bridged else "axb")

    def test_bridge_cut_by_clock_is_the_stream_cut(self, monkeypatch):
        """Over a sequencer fuzz batch, each `process` keeps exactly the
        bridge entries the sender's clock did not cover when it made the op:
        cutting by the count of stream messages it had delivered drops what
        cutting by its clock dropped. Budget: 2 s."""
        # (origin, seq) -> the maker's clock then; stream index -> (origin, seq);
        # keys repeat across sessions, but each is set before it is read
        made_at, key_of, checked = {}, {}, [0, 0]
        local, process = SequencerClient.local, SequencerServer.process

        def recording_local(self, eo):
            msg = local(self, eo)
            made_at[msg.key()] = self.clock
            return msg

        def checking_process(self, sender, msg):
            before = [key_of[e[2]] for e in self.bridges[sender]]
            out = process(self, sender, msg)
            key_of[out.index] = out.key()
            clock = made_at[msg.key()]
            assert [key_of[e[2]] for e in self.bridges[sender]] == [(o, n) for o, n in before if n > clock.get(o)]
            checked[0] += 1
            checked[1] += len(before) - len(self.bridges[sender])
            return out

        monkeypatch.setattr(SequencerClient, "local", recording_local)
        monkeypatch.setattr(SequencerServer, "process", checking_process)
        t0 = time.perf_counter()
        result = fuzz(50, base_seed=4100, engines=("ot",))
        assert time.perf_counter() - t0 < 2.0
        assert result["ok"], result["failures"][:1]
        assert checked[0] > 1000 and checked[1] > 1000  # ops processed, bridge entries cut

    def test_out_of_order_stream_rejected(self):
        client = SequencerClient(site=1, state="")
        other = SequencerClient(site=0, state="")
        server = SequencerServer(client_ids=[0, 1], state="")
        m1 = server.process(0, other.local(Insert(0, "a")))
        m2 = server.process(0, other.local(Insert(1, "b")))
        with pytest.raises(ContextMismatchError):
            client.remote(m2)

    def test_random_sessions_converge(self, rng):
        """Many small sessions at 2-5 sites with interleaved delivery."""
        for trial in range(40):
            n = rng.randint(2, 5)
            ids = list(range(n))
            initial = "abc"[: rng.randint(0, 3)]
            clients = {i: SequencerClient(site=i, state=initial) for i in ids}
            server = SequencerServer(client_ids=ids, state=initial)
            in_flight = []
            for _ in range(rng.randint(5, 25)):
                site = rng.randrange(n)
                op = random_op(rng, len(clients[site].state))
                in_flight.append((site, clients[site].local(op)))
                while in_flight and rng.random() < 0.5:
                    s, m = in_flight.pop(0)
                    out = server.process(s, m)
                    for c in clients.values():
                        c.remote(out)
            for s, m in in_flight:
                out = server.process(s, m)
                for c in clients.values():
                    c.remote(out)
            states = {c.state for c in clients.values()}
            assert len(states) == 1 and server.state in states, f"trial {trial}"

    def test_client_gc(self):
        server, clients = self._session(2, [(0, Delete(1)), (1, Insert(2, "c"))], initial="abe")
        c0 = clients[0]
        stability = {i: c.clock for i, c in clients.items()}
        assert c0.gc(stability) == 2
        assert c0.buffer == []


class TestStreamOrder:
    def test_client_ticks_for_the_stream_op(self):
        """A client's counts after a stream op are its counts ticked, in
        place, for the op's origin; an echo leaves them as they were, as
        they count the own op from when it was made. The clock is built
        from them on request."""
        ids = [0, 1, 2]
        clients = {i: SequencerClient(site=i, state="abc") for i in ids}
        server = SequencerServer(client_ids=ids, state="abc")
        rng = random.Random(5)
        for _ in range(60):
            site = rng.randrange(3)
            out = server.process(site, clients[site].local(random_op(rng, len(clients[site].state))))
            for c in clients.values():
                counts, before = c.counts, dict(c.counts)
                c.remote(out)
                if out.origin != c.site:
                    before[out.origin] = before.get(out.origin, 0) + 1
                assert c.counts is counts and counts == before and c.clock == VectorClock(before)

    @pytest.mark.parametrize("seq", [1, 3], ids=["duplicate", "gap"])
    def test_stream_op_not_its_origins_next_refused(self, seq):
        """A stream op whose seq is not one past the client's count of its
        origin is refused with every field as it was."""
        client = SequencerClient(site=0, state="ab")
        client.remote(ServerOpMsg(Insert(0, "x"), 1, 1, 0))
        before = fields(client)
        with pytest.raises(ContextMismatchError, match="is not the next op of site 1, which sent 1"):
            client.remote(ServerOpMsg(Insert(0, "y"), 1, seq, 1))
        assert fields(client) == before
        client.remote(ServerOpMsg(Insert(0, "y"), 1, 2, 1))
        assert client.state == "yxab"


class TestStability:
    """The server's acks and bridge cuts, and what each replica collects
    from what it holds."""

    def _three_clients(self):
        ids = [0, 1, 2]
        return {i: SequencerClient(site=i, state="ab") for i in ids}, SequencerServer(client_ids=ids, state="ab")

    def test_ack_cuts_the_bridge_as_an_op_would(self):
        clients, server = self._three_clients()
        for site in (0, 1, 0):
            out = server.process(site, clients[site].local(Insert(0, "x")))
            for c in clients.values():
                c.remote(out)
        assert [e[1:] for e in server.bridges[2]] == [[0, 0], [1, 1], [0, 2]]  # origin, stream index
        server.ack(2, Ack(2, 2))  # an older count of client 2 cuts a prefix
        assert [e[1:] for e in server.bridges[2]] == [[0, 2]]
        server.ack(2, Ack(2, clients[2].delivered))
        assert server.bridges[2] == []

    def test_overtaken_ack_lowers_nothing(self):
        """An ack overtaken by a later ack or op of its client cuts nothing
        more, and puts back nothing the later one cut."""
        clients, server = self._three_clients()
        for site in (0, 1, 0):
            server.process(site, clients[site].local(Insert(0, "x")))
        server.ack(2, Ack(2, 2))
        before = snapshot(server)
        for delivered in (2, 1, 0):
            server.ack(2, Ack(2, delivered))
            assert snapshot(server) == before and [e[1:] for e in server.bridges[2]] == [[0, 2]]
        server.process(1, clients[1].local(Insert(0, "y"))._replace(delivered=3))  # client 1 cut its bridge to nothing
        before = snapshot(server)
        server.ack(1, Ack(1, 1))
        assert snapshot(server) == before and server.bridges[1] == []

    @pytest.mark.parametrize("sender, ack, match", [
        (5, Ack(5, 0), "from site 5, which is not a client"),
        (1, Ack(2, 0), "ack of site 2 from client 1"),
        (1, Ack(1, 2), "client 1 claims 2 stream messages delivered, of 1 sent"),
        (1, Ack(1, 3), "client 1 claims 3 stream messages delivered, of 1 sent"),
    ], ids=["no-client", "another-clients", "unsequenced-op", "own-unsequenced-op"])
    def test_bad_ack_refused_before_any_change(self, sender, ack, match):
        """An ack from a site that is no client, of another client, or
        counting stream messages the server has not sent (client 0's next
        op, or the echoes of client 1's own ops, none sequenced yet) is
        refused with every field as it was."""
        clients, server = self._three_clients()
        server.process(0, clients[0].local(Insert(0, "x")))
        before = snapshot(server)
        with pytest.raises(ContextMismatchError, match=match):
            server.ack(sender, ack)
        assert snapshot(server) == before

    def test_symmetric_site_collects_up_to_its_oldest_pending_op(self):
        """A peer's op is stable once delivered; a local op once it leaves
        `pending`. `collect` drops the stable prefix of the log, looking
        once the log has grown by COLLECT_EVERY ops since it last looked."""
        a, b = OtSite(site=0, state="ab"), OtSite(site=1, state="ab")
        to_b = [a.local(Insert(0, "x")) for _ in range(COLLECT_EVERY - 1)]
        assert a.collect() == 0 and a.collect_at == COLLECT_EVERY  # too short to look at
        for msg in to_b[:2]:
            b.remote(msg)
        a.remote(b.local(Delete(0)))  # acknowledges 2 of a's ops; the peer's op waits behind the pending ones
        assert a.collect() == 2 and [t.key() for t in a.buffer] == [(0, k) for k in range(3, COLLECT_EVERY)] + [(1, 1)]
        assert a.collected == 2 and a.collect_at == len(a.buffer) + COLLECT_EVERY
        for msg in to_b[2:]:
            b.remote(msg)
        a.remote(b.local(Delete(0)))  # acknowledges the rest
        assert a.collect() == 0 and len(a.buffer) == COLLECT_EVERY - 1  # not looked at again yet

    def test_quiesce_reports_the_runs_total(self):
        a, b = OtSite(site=0, state="ab"), OtSite(site=1, state="ab")
        for msg in [a.local(Insert(0, "x")) for _ in range(COLLECT_EVERY)]:
            b.remote(msg)
        a.remote(b.local(Delete(0)))
        assert a.collect() == COLLECT_EVERY + 1 and a.buffer == []
        a.local(Insert(0, "z"))
        assert a.quiesce({0: a.clock, 1: a.clock}, 0, 0) == (COLLECT_EVERY + 2, None)
        assert a.buffer == [] and a.metrics.buffer_final == 0

    def test_client_collects_up_to_its_oldest_pending_op(self):
        """A client's one party is the server: a stream op it has delivered
        is stable, and so is an own op once its echo is delivered. A reader
        drops all it has delivered at its first look; a writer keeps its log
        from its oldest pending op."""
        clients, server = self._three_clients()
        writer, reader = clients[0], clients[2]

        def from_site_1(n):
            for _ in range(n):
                out = server.process(1, clients[1].local(Insert(0, "y")))
                for c in clients.values():
                    c.remote(out)

        from_site_1(COLLECT_EVERY)
        assert reader.collect() == COLLECT_EVERY and reader.buffer == []
        assert writer.collect() == COLLECT_EVERY and writer.buffer == []
        held = writer.local(Delete(0))
        from_site_1(COLLECT_EVERY - 1)  # folded past the pending op at the writer
        assert writer.collect() == 0 and [t.key() for t in writer.buffer] == [(0, 1)] + [(1, k) for k in range(9, 16)]
        out = server.process(0, held)
        for c in clients.values():
            c.remote(out)
        from_site_1(COLLECT_EVERY)  # the log grows by COLLECT_EVERY, so `collect` looks again
        assert writer.collect() == 2 * COLLECT_EVERY and writer.buffer == []
