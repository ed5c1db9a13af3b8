"""Command-line surface: run / fuzz / bench / fig1.

Exit codes: 0 all checks pass, 1 a check failed (replay seed printed),
2 bad arguments. GT_SEED in the environment overrides any --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import harness, metrics


def _at_least(low: int):
    """argparse type: an integer no smaller than `low`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's message when int() fails: "invalid int value"
    return parse


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        print(text)


def cmd_fig1(args) -> int:
    scenario = harness.fig1_scenario()
    code = 0
    for engine in harness.ENGINES:
        report = harness.run_scenario(scenario, engine)
        states = ", ".join(f"site{i}={s!r}" for i, s in sorted(report.final_states.items()))
        print(f"[{engine}] final: {states}  converged={report.converged}")
        for line in report.trace:
            print(f"  {line}")
        if report.is_dumps:
            print("  internal sequence (site 0):")
            for line in report.is_dumps[0].splitlines():
                print(f"    {line}")
        if not report.ok:
            code = 1
    return code


def cmd_run(args) -> int:
    ablation = args.ablation == "skip34"
    try:
        if args.scenario == "fig1":
            scenario = harness.fig1_scenario()
        else:
            with open(args.scenario, encoding="utf-8") as fh:
                scenario = harness.scenario_from_text(fh.read())
        seed = args.seed if args.seed is not None else scenario.seed
        report = harness.run_scenario(replace(scenario, seed=seed), args.engine, ablation=ablation)
    except (OSError, UnicodeDecodeError, harness.ScenarioError) as exc:  # unreadable, not UTF-8, or malformed
        print(f"bad scenario: {exc}", file=sys.stderr)
        return 2
    row = metrics.csv_row("run-0", report)
    if args.format == "csv":
        _emit(metrics.rows_to_csv([row]), args.output)
    else:
        payload = report.to_dict()
        payload["csv_row"] = row
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.output)
    if ablation:
        # the ablated run is expected to diverge; report it as a failure
        if not report.converged:
            print(f"divergence detected: {report.convergence_detail}", file=sys.stderr)
        return 1 if not report.converged else 0
    if not report.ok:
        print(f"check failed (replay with seed {seed}): {report.convergence_detail}", file=sys.stderr)
        return 1
    return 0


def cmd_fuzz(args) -> int:
    engines = None if args.engine == "both" else (args.engine,)
    result = harness.fuzz(args.runs, base_seed=args.seed, engines=engines, max_ops=args.ops)
    _emit(json.dumps(result, indent=2, sort_keys=True), args.output)
    if not result["ok"]:
        first = result["failures"][0]
        print(f"fuzz failure; replay seed {first['seed']} engine {first['engine']}", file=sys.stderr)
        return 1
    return 0


def cmd_bench(args) -> int:
    w = metrics.Workload(doc_len=args.doc_len, sites=args.sites, n_ops=args.ops, window=args.window, seed=args.seed)
    result = metrics.bench(w)
    _emit(json.dumps(result, indent=2, sort_keys=True), args.output)
    return 0 if result["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="coedit", description="replicated-text consistency engines and their simulation harness")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario file (or the built-in fig1)")
    run.add_argument("--engine", choices=list(harness.ENGINES), required=True)
    run.add_argument("--scenario", required=True, help="scenario file path, or 'fig1'")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--ablation", choices=["none", "skip34"], default="none")
    run.add_argument("--format", choices=["json", "csv"], default="json")
    run.add_argument("--output", default=None)
    run.set_defaults(func=cmd_run)

    fz = sub.add_parser("fuzz", help="random seeded sessions, all checks enforced")
    fz.add_argument("--runs", type=_at_least(1), default=100)
    fz.add_argument("--ops", type=_at_least(10), default=200, help="most ops per session (at least 10)")
    fz.add_argument("--seed", type=int, default=0)
    fz.add_argument("--engine", choices=[*harness.ENGINES, "both"], default="both")
    fz.add_argument("--output", default=None)
    fz.set_defaults(func=cmd_fuzz)

    be = sub.add_parser("bench", help="cost table across workloads")
    be.add_argument("--doc-len", type=_at_least(0), default=10_000)
    be.add_argument("--sites", type=_at_least(1), default=3)
    be.add_argument("--ops", type=_at_least(0), default=100)
    be.add_argument("--window", type=_at_least(1), default=10)
    be.add_argument("--seed", type=int, default=0)
    be.add_argument("--output", default=None)
    be.set_defaults(func=cmd_bench)

    f1 = sub.add_parser("fig1", help="two-site golden walkthrough on both engines")
    f1.set_defaults(func=cmd_fig1)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    env = os.environ.get("GT_SEED")
    if env:
        try:
            args.seed = int(env)
        except ValueError:
            parser.error(f"GT_SEED must be an integer, got {env!r}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
