"""Live memory of two long OT sessions at the end of their event loop.

    python3 scripts/long_session_memory.py [--ops 30000] [--seq-ops 7500] [--seed 0]

Run from the repository root; the library is imported from ./src. The two
sessions are:
  symmetric  two OtSites on a 200-character document, `--ops` fuzzed ops in
             windows of 4, latency 1..10 ticks (perfbench's ot_long shape);
  sequencer  five SequencerClients on a 4000-character document, `--seq-ops`
             scripted ops from sites 0 and 1 while sites 2-4 only read,
             latency 1..10 ticks (perfbench's seq_readers shape).
tracemalloc traces each session from before it is built to the end of its
event loop, before the end-of-run collection and checks. For each session the
script prints the traced memory then (current) and its high-water mark (peak)
in MiB, the longest log any replica held after an op, and the longest bridge
the sequencer held after sequencing an op. It then finishes the run and
prints whether it passed every check. Exit code 1 if a run fails a check.
"""

from __future__ import annotations

import argparse
import random
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coedit.harness import FuzzSpec, Scenario, ScriptEntry, _Run  # noqa: E402
from coedit.model import Delete, Insert  # noqa: E402
from coedit.netsim import UniformLatency  # noqa: E402

ALPHABET = "abcdefghijklmnopqrstuvwxyz"
MIB = 1024 * 1024


def symmetric(n_ops: int, seed: int) -> Scenario:
    rng = random.Random(f"symmetric/{seed}")
    return Scenario(
        initial="".join(rng.choice(ALPHABET) for _ in range(200)),
        sites=2,
        mode="causal",
        latency=UniformLatency(1, 10),
        seed=seed,
        fuzz=FuzzSpec(n_ops=n_ops, insert_ratio=0.7, window=4, gap=8),
    )


def sequencer(n_ops: int, seed: int, doc_len: int = 4000) -> Scenario:
    """Sites 0 and 1 edit, sites 2-4 only read. Every position is drawn
    below the shortest length the document can reach, so each op is valid
    at its site whatever the interleaving."""
    rng = random.Random(f"sequencer/{seed}")
    is_insert = [rng.random() < 0.7 for _ in range(n_ops)]
    bound = doc_len - is_insert.count(False)
    if bound < 1:
        raise SystemExit(f"error: {n_ops} ops may delete the whole {doc_len}-character document")
    ticks = sorted(rng.randint(1, n_ops) for _ in range(n_ops))
    script = tuple(
        ScriptEntry(tick, rng.randrange(2), Insert(rng.randint(0, bound), rng.choice(ALPHABET)) if ins else Delete(rng.randrange(bound)))
        for tick, ins in zip(ticks, is_insert)
    )
    return Scenario(
        initial="".join(rng.choice(ALPHABET) for _ in range(doc_len)),
        sites=5,
        mode="sequencer",
        latency=UniformLatency(1, 10),
        seed=seed,
        script=script,
    )


def measure(name: str, scenario: Scenario) -> bool:
    tracemalloc.start()
    run = _Run(scenario, "ot", ablation=False)
    longest_bridge = 0
    server = run.server
    if server is not None:  # a bridge is longest right after an op is sequenced
        process = server.process

        def sampled(sender, msg):
            nonlocal longest_bridge
            out = process(sender, msg)
            longest_bridge = max(longest_bridge, max(map(len, server.bridges.values())))
            return out

        server.process = sampled
    run.sim.run()
    current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    longest_log = max(run.metrics.buffer_length_samples, default=0)
    report = run.finish()
    print(
        f"{name:<9} {len(report.script):>6} ops  current {current / MIB:7.2f} MiB  peak {peak / MIB:7.2f} MiB  "
        f"longest log {longest_log:>6}  longest bridge {longest_bridge:>6}  ok {report.ok}"
    )
    return report.ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--ops", type=int, default=30_000, help="ops of the symmetric session")
    p.add_argument("--seq-ops", type=int, default=7_500, help="ops of the sequencer session")
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    ok = measure("symmetric", symmetric(args.ops, args.seed))
    ok &= measure("sequencer", sequencer(args.seq_ops, args.seed))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
