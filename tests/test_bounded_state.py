"""OT state follows the ops in flight, not the session: while a long session
runs, every replica's log and every sequencer bridge stay within a window,
and an op leaves a log only once nothing the replica receives later can be
concurrent with it. A symmetric site's peer is the only other site, so there
every site's clock counts it; a sequencer client's one party is the server,
so there it is not pending, the client's counts include it and the server
has sequenced it (Jupiter's two-party rule).

Each log is sampled after every delivery (the harness collects right after
it), each bridge after every op the sequencer sequences (a bridge only grows
there). Before logs and bridges were collected in the run, both held every
op of the session: 600 and 750 entries on perfbench's ot_long and
seq_readers sessions. Budget: 3 s for the module."""

import random
import time

import pytest

import coedit.ot
from coedit.harness import FuzzSpec, Scenario, ScriptEntry, _Run
from coedit.model import Delete, Insert
from coedit.netsim import ACK_EVERY, UniformLatency
from coedit.ot import COLLECT_EVERY, SequencerClient

ALPHABET = "abcdefghijklmnopqrstuvwxyz"

# Besides up to COLLECT_EVERY ops since `collect` last looked, a symmetric
# log holds the ops since its oldest pending one. In windows of 4 ops that
# start 8 ticks apart, with messages taking up to 10 ticks, an op is
# acknowledged within about three windows, a dozen ops.
SYMMETRIC_LOG_BOUND = 40
# A reader's log holds what it delivered since `collect` last looked, fewer
# than COLLECT_EVERY ops. A writer's log also holds the ops since its oldest
# pending op, which is echoed within a round trip of two legs of up to 10
# ticks. The readers() script makes about one op per tick, so a round trip
# spans about 20 ops; twice that covers bursts: 2 * 20 + COLLECT_EVERY.
SEQUENCER_LOG_BOUND = 2 * 20 + COLLECT_EVERY
# A bridge holds what its client has not reported: up to ACK_EVERY stream
# messages a reader delivers before it acks, plus the ops in flight both ways.
BRIDGE_BOUND = 3 * ACK_EVERY


def symmetric(seed: int, n_ops: int = 2000) -> Scenario:
    """Two OtSites in windows of 4 ops, as perfbench's ot_long."""
    rng = random.Random(seed)
    doc = "".join(rng.choice(ALPHABET) for _ in range(200))
    return Scenario(doc, 2, "causal", UniformLatency(1, 10), seed, fuzz=FuzzSpec(n_ops=n_ops, window=4, gap=8))


def readers(seed: int, n_ops: int = 750, doc_len: int = 1000) -> Scenario:
    """Five clients, sites 0 and 1 edit and 2-4 only read, as perfbench's
    seq_readers on a smaller document; every position is drawn below the
    shortest length the document can reach."""
    rng = random.Random(seed)
    is_insert = [rng.random() < 0.7 for _ in range(n_ops)]
    bound = doc_len - is_insert.count(False)
    ticks = sorted(rng.randint(1, n_ops) for _ in range(n_ops))
    script = tuple(
        ScriptEntry(tick, rng.randrange(2), Insert(rng.randint(0, bound), rng.choice(ALPHABET)) if ins else Delete(rng.randrange(bound)))
        for tick, ins in zip(ticks, is_insert)
    )
    doc = "".join(rng.choice(ALPHABET) for _ in range(doc_len))
    return Scenario(doc, 5, "sequencer", UniformLatency(1, 10), seed, script=script)


def observe(monkeypatch, scenario: Scenario) -> tuple:
    """Run `scenario` on OT; returns (report, longest log after a delivery,
    longest log of a site that makes no op, longest bridge after a sequenced
    op, ops collected during the event loop). An op a sequencer client drops
    in the run must not be pending there, and must be in its counts and
    sequenced by the server; any other op a replica drops, in the run or
    in the end-of-run sweep, must be counted by every site's clock."""
    run = _Run(scenario, "ot", ablation=False)
    engines = [site.engine for site in run.sites.values()]
    writers = {entry.site for entry in scenario.script} if scenario.script else set(run.sites)  # a fuzzed site may write
    readers = [e for e in engines if e.site not in writers]
    seen = {"log": 0, "reader_log": 0, "bridge": 0, "in_run": 0}
    deliver = run.sim.deliver_cb  # the simulator holds the bound method, so patch its copy

    def sampled_deliver(site_id, msg, tick):
        eo = deliver(site_id, msg, tick)
        seen["log"] = max(seen["log"], max(len(e.buffer) for e in engines))
        seen["reader_log"] = max([seen["reader_log"]] + [len(e.buffer) for e in readers])
        return eo

    def checked(method, in_run):
        def wrapper(self, *args):
            before, pending = list(self.buffer), {(self.site, e[2]) for e in self.pending}
            dropped = method(self, *args)
            kept = {t.key() for t in self.buffer}
            for t in before:
                if t.key() in kept:
                    continue
                if in_run and isinstance(self, SequencerClient):
                    assert t.key() not in pending, f"site {self.site} dropped its pending op {t.key()}"
                    assert self.counts.get(t.origin, 0) >= t.seq and run.server.sequenced[t.origin] >= t.seq, f"site {self.site} dropped {t.key()} too early"
                else:
                    assert all(e.clock.get(t.origin) >= t.seq for e in engines), f"site {self.site} dropped {t.key()} too early"
            seen["in_run"] += dropped if in_run else 0
            return dropped
        return wrapper

    run.sim.deliver_cb = sampled_deliver
    monkeypatch.setattr(coedit.ot._Replica, "collect", checked(coedit.ot._Replica.collect, True))
    monkeypatch.setattr(coedit.ot._Replica, "gc", checked(coedit.ot._Replica.gc, False))  # the end-of-run sweep
    if run.server is not None:
        process = run.server.process

        def sampled_process(sender, msg):
            out = process(sender, msg)
            seen["bridge"] = max(seen["bridge"], max(len(b) for b in run.server.bridges.values()))
            return out

        run.server.process = sampled_process
    report = run.finish()
    return report, seen["log"], seen["reader_log"], seen["bridge"], seen["in_run"]


@pytest.fixture(scope="module")
def clock():
    t0 = time.perf_counter()
    yield
    assert time.perf_counter() - t0 < 3.0


@pytest.mark.parametrize("seed", [0, 1])
def test_symmetric_log_stays_in_its_window(monkeypatch, clock, seed):
    report, log, _, _, in_run = observe(monkeypatch, symmetric(seed))
    assert report.ok and len(report.script) == 2000
    assert log <= SYMMETRIC_LOG_BOUND, log
    assert in_run > 0.9 * report.gc_total  # collected as the session runs, not at its end
    assert report.gc_total == 2 * 2000 and report.metrics.buffer_final == 0


@pytest.mark.parametrize("seed", [0, 1])
def test_sequencer_logs_and_bridges_stay_in_their_window(monkeypatch, clock, seed):
    report, log, reader_log, bridge, in_run = observe(monkeypatch, readers(seed))
    assert report.ok and len(report.script) == 750
    assert log <= SEQUENCER_LOG_BOUND, log
    assert reader_log <= COLLECT_EVERY, reader_log
    assert bridge <= BRIDGE_BOUND, bridge
    assert in_run > 0.5 * report.gc_total
    assert report.gc_total == 5 * 750 and report.metrics.buffer_final == 0
