"""Benchmark of the coedit engines, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src. Workloads:
fuzz_mixed, woot_bigdoc, ot_long, seq_readers (see README.md beside this
file). `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
metrics from a separate traced run; each also prints the exact-count block.
The last line of standard output is one JSON object with the keys correct,
attempted, failed (sessions) and metrics. The exit code is 0 when every
session passes every check, 1 when one fails, 2 on a usage or set-up error.

Each invocation runs a single workload, so `peak_rss_mb` (the process's
high-water mark) belongs to that workload alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("fuzz_mixed", "woot_bigdoc", "ot_long", "seq_readers")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _show(metrics: dict, units: dict) -> None:
    for name, unit in units.items():
        print(f"  {name:<42} {metrics[name]:>14.6g} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "coedit" / "__init__.py").is_file():
        print(f"error: the coedit sources are missing: no {SRC / 'coedit' / '__init__.py'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    if args.trace:
        spans = HERE / "out" / f"{workload.name}-seed{args.seed}.spans.tsv.gz"
        run = measure.measure_traced(workload, args.seed, args.seconds, spans)
        units = measure.PER_LAYER
        print(f"{run['pairs']} untraced+traced pass pairs in {run['elapsed_s']:.1f} s; spans in {spans.relative_to(HERE.parent)}")
        print("layer split (share of traced host time): " + json.dumps(run["split"]))
    else:
        run = measure.measure(workload, args.seed, args.seconds, SRC)
        units = measure.END_TO_END
        print(
            f"{run['passes']} passes over {run['ops']} ops in {run['elapsed_s']:.1f} s; "
            f"{run['samples'][0]} local and {run['samples'][1]} remote latency samples"
        )
        print("host s per pass: " + " ".join(f"{s:.3f}" for s in run["pass_s"]))
        print(f"reference routine {run['reference_ns']:.0f} ns; before calibration: " + json.dumps(run["raw"]))
        print(f"  {'failed_frac':<42} {len(run['failures']) / run['sessions']:>14.6g} ratio")
    if not run["consistent"]:
        print("FAILED exact counts differ between passes over the same sessions", file=sys.stderr)
    failures, attempted, metrics = run["failures"], run["sessions"], run["metrics"]
    if metrics:
        _show(metrics, units)
    for reason in failures[:5]:
        print(f"FAILED {reason}", file=sys.stderr)
    print("exact " + json.dumps(run["exact"], sort_keys=True))
    correct = not failures and run["consistent"] and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()} if metrics else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
