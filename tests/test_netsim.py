"""Discrete-event network: latency models, causal gating, sequencer order,
determinism, liveness."""

import random
from dataclasses import replace

import pytest

import coedit.netsim
from coedit.framework import Site, encode_message
from coedit.model import Delete, Insert, VectorClock
from coedit.netsim import (
    ACK_EVERY,
    FixedLatency,
    SEQUENCER_NODE,
    SimConfig,
    Simulator,
    UniformLatency,
    causally_ready,
)
from coedit.ot import ClientOp, SequencerServer
from coedit.woot import NotExecutableError
from coedit.harness import (
    FuzzSpec,
    Scenario,
    ScriptEntry,
    fig1_scenario,
    run_scenario,
)

from conftest import stamp


class TestCausallyReady:
    """The gate reads a message's origin, seq and clock: an OT record's
    clock is empty, a WOOT stamp's names what its op depends on."""

    def test_first_op_from_unknown_site(self):
        assert causally_ready(ClientOp(Delete(0), 0, 1, 0), VectorClock())

    def test_gap_in_origin_sequence(self):
        assert not causally_ready(ClientOp(Delete(0), 0, 2, 0), VectorClock())

    def test_dependency_satisfied(self):
        assert causally_ready(stamp(Delete(0), 0, 1, {1: 1}), VectorClock({1: 1}))

    def test_dependency_missing(self):
        assert not causally_ready(stamp(Delete(0), 0, 1, {1: 1}), VectorClock())

    def test_duplicate_not_ready(self):
        assert not causally_ready(ClientOp(Delete(0), 0, 1, 0), VectorClock({0: 1}))

    def test_clockless_message_ready_exactly_when_next(self):
        """A counted record names no dependency, whatever it counts: it is
        ready exactly when it is its origin's next."""
        local = VectorClock({0: 2, 1: 5})
        for seq in range(1, 6):
            for delivered in (0, 5, 9):
                assert causally_ready(ClientOp(Delete(0), 0, seq, delivered), local) == (seq == 3)


class TestLatencyModels:
    def _sim(self, latency, sites=2, mode="causal", seed=0):
        cfg = SimConfig(mode, latency, seed)
        return Simulator(cfg, list(range(sites)), lambda s, t: None, lambda s, m, t: None, lambda s: VectorClock())

    @staticmethod
    def _arrivals(sim):
        """Destination -> arrival tick of each scheduled network event."""
        return {dst: tick for tick, _, _, (dst, _) in sim.events}

    def test_fixed_latency_schedule(self):
        sim = self._sim(FixedLatency(3))
        sim.now = 5
        sim.broadcast(ClientOp(Delete(0), 0, 1, 0), [1])
        assert self._arrivals(sim) == {1: 8}

    def test_broadcast_reaches_all_other_sites(self):
        sim = self._sim(FixedLatency(1), sites=5)
        sim.broadcast(ClientOp(Delete(0), 0, 1, 0), [1, 2, 3, 4])
        assert sorted(self._arrivals(sim)) == [1, 2, 3, 4]

    def test_uniform_latency_deterministic_per_seed(self):
        draws = []
        for _ in range(2):
            sim = self._sim(UniformLatency(1, 10), sites=3, seed=42)
            sim.broadcast(ClientOp(Delete(0), 0, 1, 0), [1, 2])
            draws.append(self._arrivals(sim))
        assert draws[0] == draws[1]

    def test_minimum_one_tick(self):
        sim = self._sim(FixedLatency(0))
        sim.broadcast(ClientOp(Delete(0), 0, 1, 0), [1])
        assert self._arrivals(sim)[1] == 1

    @pytest.mark.parametrize("lo, hi", [(1, 10), (0, 3)], ids=["1-10", "0-3-clamped"])
    def test_uniform_draws_are_randint_in_order(self, lo, hi):
        """The arrival ticks are the seed's `randint(lo, hi)` draws, in the
        order the events were scheduled, each at least 1."""
        sim = self._sim(UniformLatency(lo, hi), sites=9, seed=42)
        for seq in range(1, 51):
            sim.broadcast(ClientOp(Delete(0), 0, seq, 0), list(range(1, 9)))
        rng = random.Random(42)
        assert [tick for tick, *_ in sorted(sim.events, key=lambda e: e[1])] == [max(1, rng.randint(lo, hi)) for _ in range(400)]

    def test_uniform_bounds_checked_at_construction(self):
        # an inverted range would only fail later, inside the run's latency draw
        with pytest.raises(ValueError, match="lo <= hi"):
            UniformLatency(5, 2)
        assert UniformLatency(5, 5).hi == 5

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            SimConfig("gossip", FixedLatency(1), 0)


def _script_scenario(entries, sites=2, mode="causal", latency=FixedLatency(1), doc="abe", seed=0):
    return Scenario(doc, sites, mode, latency, seed, script=tuple(entries))


class TestDeliveryOrder:
    def test_causal_pair_ordered_everywhere(self):
        """Site 0's second op depends on its first even with inverted latency."""
        scenario = _script_scenario(
            [ScriptEntry(1, 0, Insert(0, "x")), ScriptEntry(2, 0, Insert(1, "y"))],
            latency=UniformLatency(1, 9), seed=3,
        )
        report = run_scenario(scenario, "ot")
        deliveries = [l for l in report.trace if "site=1 kind=deliver" in l]
        assert [l.split("key=")[1] for l in deliveries] == ["0:1", "0:2"]
        assert report.converged and report.quiescent

    def test_sequencer_assigns_consecutive_indices(self):
        scenario = _script_scenario(
            [ScriptEntry(1, 0, Delete(1)), ScriptEntry(1, 1, Insert(2, "c"))],
            mode="sequencer",
        )
        report = run_scenario(scenario, "ot")
        assert report.converged
        # every site sees both ops through the server stream
        for s in (0, 1):
            keys = [l.split("key=")[1] for l in report.trace if f"site={s} kind=deliver" in l]
            assert sorted(keys) == ["0:1", "1:1"]

    def test_trace_determinism(self):
        scenario = Scenario("abc", 3, "causal", UniformLatency(1, 6), 11,
                            fuzz=FuzzSpec(n_ops=25))
        r1 = run_scenario(scenario, "woot")
        r2 = run_scenario(scenario, "woot")
        assert r1.trace == r2.trace
        assert r1.trace_digest == r2.trace_digest

    def test_quiescence_liveness(self):
        report = run_scenario(fig1_scenario(), "woot")
        assert report.quiescent

    def test_delivery_failure_escapes_run(self):
        """A message a site cannot execute under causal delivery is an
        invariant failure: nothing holds it back for a retry."""

        def deliver(site, msg, tick):
            raise NotExecutableError("anchors missing")

        sim = Simulator(SimConfig("causal", FixedLatency(1), 0), [0, 1],
                        lambda s, t: ClientOp(Delete(0), 0, 1, 0) if s == 0 else None,
                        deliver, lambda s: VectorClock())
        sim.schedule_generation(1, 0)
        with pytest.raises(NotExecutableError):
            sim.run()

    def test_trace_line_shape(self):
        report = run_scenario(fig1_scenario(), "ot")
        for line in report.trace:
            assert line.startswith("tick=")
            assert " kind=" in line and " key=" in line


SHARED_PATH_RUNS = [
    pytest.param(replace(fig1_scenario(), mode="sequencer"), "ot", id="fig1-sequencer"),
    pytest.param(Scenario("abcd", 3, "sequencer", UniformLatency(1, 6), 5, fuzz=FuzzSpec(n_ops=40)), "ot",
                 id="sequencer-3-sites"),
    pytest.param(Scenario("abcd", 3, "causal", UniformLatency(1, 6), 5, fuzz=FuzzSpec(n_ops=40)), "woot",
                 id="woot-causal-3-sites"),
]


class TestSharedMessages:
    """Each envelope is encoded once and decoded once; its destinations share
    the decoded message."""

    @pytest.mark.parametrize("scenario,engine", SHARED_PATH_RUNS)
    def test_one_decode_per_encode(self, monkeypatch, scenario, engine):
        calls = {"encode": 0, "decode": 0}

        def counted(name, fn):
            def wrapper(arg):
                calls[name] += 1
                return fn(arg)
            return wrapper

        monkeypatch.setattr(coedit.netsim, "encode_message", counted("encode", coedit.netsim.encode_message))
        monkeypatch.setattr(coedit.netsim, "decode_message", counted("decode", coedit.netsim.decode_message))
        report = run_scenario(scenario, engine)
        assert report.ok
        assert calls["decode"] == calls["encode"] > 0

    @pytest.mark.parametrize("scenario,engine", SHARED_PATH_RUNS)
    def test_delivery_leaves_the_shared_message_unchanged(self, monkeypatch, scenario, engine):
        deliver = Site.deliver
        delivered = []

        def checked(site, msg):
            before = encode_message(msg)
            eo = deliver(site, msg)
            assert encode_message(msg) == before, f"site {site.id} changed the message it was delivered"
            delivered.append(msg)
            return eo

        monkeypatch.setattr(Site, "deliver", checked)
        report = run_scenario(scenario, engine)
        assert report.ok
        # the same message object reached more than one site
        assert len({id(m) for m in delivered}) < len(delivered)


def _one_writer(n_ops=120, seed=4):
    """Four sequencer clients: site 0 edits, sites 1-3 only read."""
    script = tuple(ScriptEntry(1 + k // 3, 0, Insert(k % 5, "x")) for k in range(n_ops))
    return Scenario("abcde", 4, "sequencer", UniformLatency(1, 10), seed, script=script)


class TestAcks:
    """A sequencer client acks its delivered count after every ACK_EVERY stream
    messages it delivers since it last sent anything."""

    def _acks(self, monkeypatch):
        acks = []
        ack = SequencerServer.ack

        def recorded(server, sender, msg):
            acks.append((sender, msg.delivered))
            return ack(server, sender, msg)

        monkeypatch.setattr(SequencerServer, "ack", recorded)
        return acks

    @staticmethod
    def _expected_acks(trace, site):
        """Walk a site's trace lines: a gen line sends an op, a deliver line
        counts one stream message, and the ACK_EVERY-th since the last send
        sends an ack right after it."""
        count = acks = 0
        for line in trace:
            if f" site={site} kind=gen " in line:
                count = 0
            elif f" site={site} kind=deliver " in line:
                count += 1
                if count == ACK_EVERY:
                    acks, count = acks + 1, 0
        return acks

    def test_acks_follow_deliveries_and_sends(self, monkeypatch):
        acks = self._acks(monkeypatch)
        report = run_scenario(_one_writer(), "ot")
        assert report.ok
        per_site = {s: [c for sender, c in acks if sender == s] for s in range(4)}
        for s in range(4):
            assert len(per_site[s]) == self._expected_acks(report.trace, s)
        for s in (1, 2, 3):  # a reader acks the stream prefix it has delivered
            assert per_site[s] == [ACK_EVERY * (k + 1) for k in range(120 // ACK_EVERY)]

    @pytest.mark.parametrize("every", [1, 5, 10**9], ids=["each-delivery", "every-5", "never"])
    def test_acks_leave_the_trace_as_it_is(self, monkeypatch, every):
        """Acks draw no latency from the simulator's RNG and write no trace
        line, so neither the trace nor any cost unit moves with them."""
        scenarios = [_one_writer(), Scenario("abcd", 4, "sequencer", UniformLatency(1, 9), 8, fuzz=FuzzSpec(n_ops=80))]
        base = [run_scenario(s, "ot") for s in scenarios]
        acks = self._acks(monkeypatch)
        monkeypatch.setattr(coedit.netsim, "ACK_EVERY", every)
        for s, b in zip(scenarios, base):
            r = run_scenario(s, "ot")
            assert r.ok and r.trace == b.trace and r.metrics.c_samples == b.metrics.c_samples
            assert r.gc_total == b.gc_total
        assert (acks == []) == (every == 10**9)

    def test_ack_bytes_are_counted(self, monkeypatch):
        """An ack goes through `encode_message`, like every wire message."""
        kinds = []
        encode = coedit.netsim.encode_message

        def counted(msg):
            data = encode(msg)
            kinds.append(type(msg).__name__)
            return data

        monkeypatch.setattr(coedit.netsim, "encode_message", counted)
        acks = self._acks(monkeypatch)
        assert run_scenario(_one_writer(), "ot").ok
        assert kinds.count("Ack") == len(acks) >= 3 * (120 // ACK_EVERY)
