"""Seeded workload generators.

A workload's input for seed s is a fixed batch of rounds, each a list of
(Scenario, engine) sessions, that depends only on (workload, s): the same
seed always yields the same inputs. Every run executes the whole batch,
several times over, so the paper's cost units, the trace digests and the
number of timed ops are the same in every run of a seed.

The generators drive the library directly with ready-made scenarios; the
library only ever sees the generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, List, Tuple

from coedit.harness import FuzzSpec, Scenario, ScriptEntry
from coedit.model import Delete, Insert
from coedit.netsim import UniformLatency

ALPHABET = "abcdefghijklmnopqrstuvwxyz"

Session = Tuple[Scenario, str]
Round = List[Session]


@dataclass(frozen=True)
class Workload:
    name: str
    make_batch: Callable[[random.Random], List[Round]]

    def batch(self, seed: int) -> List[Round]:
        return self.make_batch(random.Random(f"{self.name}/{seed}"))


def _text(rng: random.Random, n: int, alphabet: str = ALPHABET) -> str:
    return "".join(rng.choice(alphabet) for _ in range(n))


def fuzz_mixed(rounds: int, max_ops: int) -> Callable:
    """The acceptance fuzz mix: per round, one sequencer-OT and one
    causal-WOOT session on the same random scenario (2-5 sites, at most 12
    chars, 10..max_ops ops, uniform latency 1..2-10 ticks).

    The draws are stratified over the batch, so every seed's batch holds the
    same mix of sizes and seeds differ in the scenarios, not in how much work
    they hold: round k has 2 + k % 4 sites; the rounds of each site count
    take one op count from each of `rounds // 4` equal slices of
    10..max_ops; the latency bound and the insert ratio step through their
    ranges with k.
    """
    strata = rounds // 4

    def make(rng: random.Random) -> List[Round]:
        batch = []
        for k in range(rounds):
            n_ops = 10 + int((max_ops - 10) * (k // 4 + rng.random()) / strata)
            base = Scenario(
                initial=_text(rng, rng.randint(0, 12), "abcdef"),
                sites=2 + k % 4,
                mode="sequencer",
                latency=UniformLatency(1, 2 + 5 * k % 9),
                seed=rng.getrandbits(32),
                fuzz=FuzzSpec(n_ops=n_ops, insert_ratio=0.5 + 0.35 * (7 * k % rounds + rng.random()) / rounds),
            )
            batch.append([(base, "ot"), (replace(base, mode="causal"), "woot")])
        return batch

    return make


def woot_bigdoc(rounds: int, doc_len: int, n_ops: int) -> Callable:
    """Causal WOOT on a large document, 2 sites, in bursts of at most 10
    concurrent ops; the gap outlasts the largest delay, so bursts never
    overlap. One session per round."""

    def make(rng: random.Random) -> List[Round]:
        return [
            [(
                Scenario(
                    initial=_text(rng, doc_len),
                    sites=2,
                    mode="causal",
                    latency=UniformLatency(1, 10),
                    seed=rng.getrandbits(32),
                    fuzz=FuzzSpec(n_ops=n_ops, insert_ratio=0.6, window=10, gap=12),
                ),
                "woot",
            )]
            for _ in range(rounds)
        ]

    return make


def ot_long(rounds: int, n_ops: int) -> Callable:
    """Two symmetric OT sites, one long session per round in windows of 4
    ops; the gap is shorter than the largest delay, so neighbouring windows
    overlap."""

    def make(rng: random.Random) -> List[Round]:
        return [
            [(
                Scenario(
                    initial=_text(rng, 200),
                    sites=2,
                    mode="causal",
                    latency=UniformLatency(1, 10),
                    seed=rng.getrandbits(32),
                    fuzz=FuzzSpec(n_ops=n_ops, insert_ratio=0.7, window=4, gap=8),
                ),
                "ot",
            )]
            for _ in range(rounds)
        ]

    return make


def seq_readers(rounds: int, doc_len: int, n_ops: int) -> Callable:
    """Sequencer OT on 5 sites where sites 0 and 1 edit and the other three
    only read, one session per round from a seeded script.

    Every position is drawn below `doc_len - deletes`, a length the document
    can never shrink under, so each scripted op is valid at its site whatever
    the interleaving.
    """

    def session(rng: random.Random) -> Session:
        is_insert = [rng.random() < 0.7 for _ in range(n_ops)]
        bound = doc_len - is_insert.count(False)
        ticks = sorted(rng.randint(1, n_ops) for _ in range(n_ops))
        script = tuple(
            ScriptEntry(
                tick,
                rng.randrange(2),
                Insert(rng.randint(0, bound), rng.choice(ALPHABET)) if ins else Delete(rng.randrange(bound)),
            )
            for tick, ins in zip(ticks, is_insert)
        )
        return (
            Scenario(
                initial=_text(rng, doc_len),
                sites=5,
                mode="sequencer",
                latency=UniformLatency(1, 10),
                seed=rng.getrandbits(32),
                script=script,
            ),
            "ot",
        )

    def make(rng: random.Random) -> List[Round]:
        return [[session(rng)] for _ in range(rounds)]

    return make


# Each batch holds at least 1000 local and 1000 remote latency samples, so
# a p99 over it has ten samples beyond it, and one pass over it takes a few
# seconds at most, so a run makes several passes. The costliest ops of an OT
# session come at its end, where the buffer or the bridges are longest, so
# the OT workloads split their ops over two sessions: the p99 then draws on
# twice as many moments of each pass, which steadies it against the host.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fuzz_mixed", fuzz_mixed(rounds=24, max_ops=200)),
        Workload("woot_bigdoc", woot_bigdoc(rounds=4, doc_len=1000, n_ops=250)),
        Workload("ot_long", ot_long(rounds=2, n_ops=600)),
        Workload("seq_readers", seq_readers(rounds=2, doc_len=4000, n_ops=750)),
    )
}

# The same shapes at a size that runs in well under a second, for the self-test.
TINY = {
    w.name: w
    for w in (
        Workload("fuzz_mixed", fuzz_mixed(rounds=4, max_ops=20)),
        Workload("woot_bigdoc", woot_bigdoc(rounds=2, doc_len=300, n_ops=20)),
        Workload("ot_long", ot_long(rounds=2, n_ops=20)),
        Workload("seq_readers", seq_readers(rounds=2, doc_len=100, n_ops=20)),
    )
}
