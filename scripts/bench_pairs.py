"""Paired benchmark runs of a parent revision against the working tree.

    python3 scripts/bench_pairs.py --parent REV --scratch DIR --out BENCH_x.json \\
        [--workloads fuzz_mixed,woot_bigdoc] [--seeds 101-110] [--seconds 30] \\
        [--title TEXT] [--claim WORKLOAD:METRIC] [--profile WORKLOAD:SEED] \\
        [--timeit-setup CODE] [--timeit LABEL=STATEMENT ...] [--sweep N,N,...]

Run from the repository root. Two checkouts are built side by side under
DIR, replacing any earlier ones there: DIR/parent from `git archive REV`,
DIR/change from the working tree's tracked and untracked, not ignored files.
For each workload and seed, `perfbench/run.py --trace 0` runs once in each
checkout, one process at a time; odd seeds run the parent first, even seeds
the change. Each pair records both runs' end-to-end metrics, whether both
printed the same exact-count block and `exact_diff_keys`, the keys whose
values differ between the two blocks (None when a run printed none), with
each run's reference-routine time and its figures before calibration. A pair
is flagged `reference_slow` when either run's reference time is more than
25% above the median over all that workload's runs: calibration then
over-corrects a slow host spell. The flag is a report only; every pair still
counts. Per workload the output also holds the union of the pairs'
`exact_diff_keys` and the flagged seeds, and per metric it holds
both sides' quartiles (inclusive method), the ratio of the medians, the
parent's IQR over its median, how many pairs each side won and a verdict;
the metrics, their directions and their bounds come from BENCHMARK.json.
The verdict is `worse` when the change's median is worse than the parent's
by more than the metric's bound, `unresolved` when the parent's IQR over its
median exceeds the bound and not every change run beats every parent run,
and `within bound` otherwise. The top-level `no_regression` is false if any
verdict is `worse`, else null if any is `unresolved` (or a workload has no
pair with every session correct), else true; each flagged metric is printed.

--claim names the claimed metric; its block also says whether the median
gain exceeds the parent's IQR. --profile adds a cProfile of one pass over
that workload's batch in each checkout (after one unprofiled pass).
--timeit adds per-call times of a statement, the best of 5 repeats, in 5
alternating rounds per checkout, with --timeit-setup run first.
--sweep runs the cost table of `python -m coedit bench --doc-len N --sites 3`
for each listed N in both checkouts, in 3 alternating rounds, and records its
WOOT rows: per side the median over the rounds of each row's mean, p50 and
p99 local and remote times and of `init.woot_init_ns`, and the rows'
`search_steps_total`, `C` and `C_t`, each of which must be the same in every
round on both sides (the scans' cost depends on the tombstone ratio).
The times are the library's own summary keys; a revision whose summary lacks
one reports it as None. The output also records each checkout's line count
of `src/coedit/*.py`, as `wc -l` totals it.
Exit code 1 if a run fails, a pair's exact blocks differ or a sweep's
counts differ.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def build_checkouts(rev: str, scratch: Path) -> dict:
    """DIR/parent from `git archive REV`, DIR/change from the working tree."""
    dirs = {side: scratch / side for side in SIDES}
    for d in dirs.values():
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as tar:
        tar.extractall(dirs["parent"], filter="data")
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0"):
        src = ROOT / name.decode()
        if name and src.is_file():
            dst = dirs["change"] / name.decode()
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dst)
    return dirs


def source_lines(checkout: Path) -> int:
    """Newlines in the checkout's `src/coedit/*.py`: the total of `wc -l`."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src" / "coedit").glob("*.py"))


def exact_diff_keys(parent: str | None, change: str | None) -> list | None:
    """The keys whose values differ between two `exact {...}` lines."""
    if parent is None or change is None:
        return None
    a, b = (json.loads(line.split(" ", 1)[1]) for line in (parent, change))
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


REFERENCE_SLOW = 1.25  # a run's reference time over the workload's median


def flag_reference_slow(pairs: list) -> list:
    """Set each pair's `reference_slow`; returns the flagged pairs' seeds."""
    times = [t for p in pairs for t in p["reference_ns"].values() if t is not None]
    limit = REFERENCE_SLOW * statistics.median(times) if times else float("inf")
    for p in pairs:
        p["reference_slow"] = any(t is not None and t > limit for t in p["reference_ns"].values())
    return [p["seed"] for p in pairs if p["reference_slow"]]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    exact = next((line for line in lines if line.startswith("exact ")), None)
    ref = next((line for line in lines if line.startswith("reference routine ")), "")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    return {
        "correct": result.get("correct", False) and done.returncode == 0,
        "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()},
        "exact": exact,
        "reference_ns": float(ref.split()[2]) if ref else None,
        "uncalibrated": json.loads(ref.split("before calibration: ", 1)[1]) if ref else None,
    }


SWEEP_ROUNDS = 3
SWEEP_TIMES = ("local_ns_mean", "remote_ns_mean", "local_ns_p50", "local_ns_p99", "remote_ns_p50", "remote_ns_p99")
SWEEP_COUNTS = ("search_steps_total", "C", "C_t")
SWEEP_ROWS = ("sequential_woot", "concurrent_woot")


# `coedit bench --sites 3`
SWEEP_PROGRAM = """
import json, sys
from coedit import metrics
print(json.dumps(metrics.bench(metrics.Workload(doc_len=int(sys.argv[1]), sites=3))))
"""


def bench_once(checkout: Path, doc_len: int) -> dict:
    """One run of the `coedit bench` cost table at this document length: its WOOT rows."""
    cmd = [sys.executable, "-c", SWEEP_PROGRAM, str(doc_len)]
    env = {k: v for k, v in os.environ.items() if k != "GT_SEED"}
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, env={**env, "PYTHONPATH": "src"})
    try:
        result = json.loads(done.stdout)
    except json.JSONDecodeError:
        return {"ok": False, "woot_init_ns": None, "rows": {}}
    rows = {row["workload"]: row for row in result["table"] if row["workload"].endswith("_woot")}
    return {"ok": done.returncode == 0 and result["ok"], "woot_init_ns": result["init"]["woot_init_ns"], "rows": rows}


def sweep(dirs: dict, doc_len: int) -> dict:
    """SWEEP_ROUNDS alternating `coedit bench` runs per side at one document length."""
    runs = {side: [] for side in SIDES}
    for r in range(SWEEP_ROUNDS):
        for side in SIDES if r % 2 == 0 else SIDES[::-1]:
            runs[side].append(bench_once(dirs[side], doc_len))
            print(f"sweep {doc_len} round {r} {side}: ok {runs[side][-1]['ok']}", flush=True)
    median = lambda xs: statistics.median(xs) if None not in xs else None
    counts = {tuple(run["rows"].get(name, {}).get(key) for name in SWEEP_ROWS for key in SWEEP_COUNTS)
              for side in SIDES for run in runs[side]}
    out = {
        "rounds": SWEEP_ROUNDS,
        "all_ok": all(run["ok"] for side in SIDES for run in runs[side]),
        "counts_identical": len(counts) == 1 and None not in next(iter(counts)),
    }
    for side in SIDES:
        ok_runs = [run for run in runs[side] if run["ok"]]
        out[side] = {"woot_init_ns": median([run["woot_init_ns"] for run in ok_runs]) if ok_runs else None}
        for name in SWEEP_ROWS:
            out[side][name] = {key: median([run["rows"][name].get(key) for run in ok_runs]) if ok_runs else None
                               for key in SWEEP_TIMES}
            out[side][name].update({key: ok_runs[0]["rows"][name].get(key) if ok_runs else None for key in SWEEP_COUNTS})
    return out


def summarize(pairs: list, name: str, higher_better: bool, bound: float) -> dict:
    values = {side: [p[side][name] for p in pairs] for side in SIDES}
    q = {side: statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1 else v * 3 for side, v in values.items()}
    better = sum((c > p) if higher_better else (c < p) for p, c in zip(values["parent"], values["change"]))
    worse = sum((c < p) if higher_better else (c > p) for p, c in zip(values["parent"], values["change"]))
    ratio = q["change"][1] / q["parent"][1]
    spread = (q["parent"][2] - q["parent"][0]) / q["parent"][1]
    if higher_better:
        loss, all_better = 1 - ratio, min(values["change"]) > max(values["parent"])
    else:
        loss, all_better = ratio - 1, max(values["change"]) < min(values["parent"])
    return {
        "parent_q1_median_q3": [round(x, 6) for x in q["parent"]],
        "change_q1_median_q3": [round(x, 6) for x in q["change"]],
        "change_over_parent_median": round(ratio, 4),
        "parent_iqr_over_median": round(spread, 4),
        "pairs_change_better": better,
        "pairs_parent_better": worse,
        "verdict": "worse" if loss > bound else "unresolved" if spread > bound and not all_better else "within bound",
    }


def no_regression(workloads: dict) -> bool | None:
    """False if any verdict is `worse`, else None if any is `unresolved` or
    a workload has no summary, else True."""
    verdicts = {s["verdict"] for w in workloads.values() for s in w["summary"].values()}
    if not all(w["summary"] for w in workloads.values()):
        verdicts.add("unresolved")
    return False if "worse" in verdicts else None if "unresolved" in verdicts else True


PROFILE = """
import cProfile, json, pstats, re, sys
sys.path[:0] = ["src", "perfbench"]
from coedit.harness import run_scenario
from workloads import WORKLOADS
batch = [s for rnd in WORKLOADS[sys.argv[1]].batch(int(sys.argv[2])) for s in rnd]
one_pass = lambda: [run_scenario(scenario, engine) for scenario, engine in batch]
one_pass()
prof = cProfile.Profile()
prof.runcall(one_pass)
stats = pstats.Stats(prof)
rows = []
for (path, _, func), (_, calls, self_s, cum_s, _) in stats.stats.items():
    if "/coedit/" in path or path == "~":
        label = re.sub(" at 0x[0-9a-f]+", "", func) if path == "~" else path.rsplit("/", 1)[-1][:-3] + "." + func
        rows.append((self_s, label, {"calls": calls, "self_s": round(self_s, 4), "cum_s": round(cum_s, 4)}))
rows.sort(key=lambda r: -r[0])
print(json.dumps({"total_profiled_s": round(stats.total_tt, 3), "top_self": {label: row for _, label, row in rows[:20]}}))
"""

TIMEIT = """
import json, sys, timeit
sys.path.insert(0, "src")
setup, stmts = sys.argv[1], json.loads(sys.argv[2])
out = {}
for label, stmt in stmts.items():
    timer = timeit.Timer(stmt, setup)
    number, _ = timer.autorange()
    out[label] = min(timer.repeat(repeat=5, number=number)) / number * 1e6
print(json.dumps(out))
"""


def python_json(checkout: Path, code: str, *args: str) -> dict:
    done = subprocess.run([sys.executable, "-c", code, *args], cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def host() -> str:
    cpu = "unknown CPU"
    try:
        cpu = next(line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo") if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"{cpu}, {platform.system()}, CPython {platform.python_version()}; one benchmark process at a time"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="revision to compare against, e.g. HEAD")
    p.add_argument("--scratch", required=True, type=Path, help="directory for the two checkouts")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--workloads", default="fuzz_mixed,woot_bigdoc,ot_long,seq_readers")
    p.add_argument("--seeds", default="101-110", help="N or LO-HI")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--title", default="")
    p.add_argument("--claim", default=None, help="WORKLOAD:METRIC")
    p.add_argument("--profile", default=None, help="WORKLOAD:SEED")
    p.add_argument("--timeit-setup", default="pass")
    p.add_argument("--timeit", action="append", default=[], help="LABEL=STATEMENT; repeatable")
    p.add_argument("--sweep", default="", help="N,N,...: document lengths for the `coedit bench --sites 3` table")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads, seeds = [w for w in args.workloads.split(",") if w], parse_seeds(args.seeds)
    dirs = build_checkouts(args.parent, args.scratch.resolve())
    parent_rev = git("rev-parse", "--short", args.parent).decode().strip()
    out = {
        "title": args.title,
        "command": "python3 scripts/bench_pairs.py " + " ".join(map(_quote, argv if argv is not None else sys.argv[1:])),
        "parent": parent_rev,
        "change": f"working tree on {git('rev-parse', '--short', 'HEAD').decode().strip()}"
        + (", with uncommitted changes" if git("status", "--porcelain", "--untracked-files=no").strip() else ""),
        "host": host(),
        "src_coedit_lines": {side: source_lines(dirs[side]) for side in SIDES},
        "bounds": ", ".join(f"{m['name']} {m['bound']}" for m in spec["end_to_end"]),
        "workloads": {},
    }
    ok = True
    for workload in workloads:
        pairs = []
        for seed in seeds:
            order = SIDES if seed % 2 else SIDES[::-1]
            runs = {side: run_once(dirs[side], workload, seed, args.seconds) for side in order}
            same = runs["parent"]["exact"] is not None and runs["parent"]["exact"] == runs["change"]["exact"]
            ok &= same and all(r["correct"] for r in runs.values())
            pairs.append({"seed": seed, "first": order[0], "exact_identical": same,
                          "exact_diff_keys": exact_diff_keys(runs["parent"]["exact"], runs["change"]["exact"]),
                          **{s: runs[s]["metrics"] for s in SIDES},
                          "correct": {s: runs[s]["correct"] for s in SIDES},
                          "reference_ns": {s: runs[s]["reference_ns"] for s in SIDES},
                          "uncalibrated": {s: runs[s]["uncalibrated"] for s in SIDES}})
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{s} {runs[s]['metrics'].get('ops_per_s', 0):.0f} ops/s" for s in SIDES) + f"  exact same: {same}", flush=True)
        timed = [p for p in pairs if all(p["correct"].values())]
        slow = flag_reference_slow(pairs)
        if slow:
            print(f"{workload}: reference time over x{REFERENCE_SLOW} the median in the pairs of seeds {slow}", flush=True)
        out["workloads"][workload] = {
            "pairs_run": len(pairs),
            "all_sessions_correct": len(timed) == len(pairs),
            "exact_block_identical_in_every_pair": all(p["exact_identical"] for p in pairs),
            "exact_diff_keys": sorted({k for p in pairs for k in p["exact_diff_keys"] or ()}),
            "pairs_reference_slow": slow,
            "summary": {name: summarize(timed, name, hi, bounds[name]) for name, hi in directions.items()} if timed else {},
            "pairs": pairs,
        }
    out["no_regression"] = no_regression(out["workloads"])
    for workload, w in out["workloads"].items():
        for name, s in w["summary"].items():
            if s["verdict"] != "within bound":
                print(f"{workload} {name}: {s['verdict']}, median x{s['change_over_parent_median']}, "
                      f"parent IQR/median {s['parent_iqr_over_median']}, bound {bounds[name]}", flush=True)
    print(f"no_regression: {json.dumps(out['no_regression'])}", flush=True)
    if args.claim:
        workload, metric = args.claim.split(":")
        s = out["workloads"][workload]["summary"][metric]
        q1, med, q3 = s["parent_q1_median_q3"]
        gain = s["change_q1_median_q3"][1] - med
        out["claim"] = {
            "workload": workload,
            "metric": metric,
            "change_over_parent_median": s["change_over_parent_median"],
            "pairs_change_better": s["pairs_change_better"],
            "pairs_run": out["workloads"][workload]["pairs_run"],
            "parent_iqr_over_median": s["parent_iqr_over_median"],
            "median_gain_exceeds_parent_iqr": (gain if directions[metric] else -gain) > q3 - q1,
        }
    if args.profile:
        workload, seed = args.profile.split(":")
        out[f"profile_{workload}_seed{seed}"] = {side: python_json(dirs[side], PROFILE, workload, seed) for side in SIDES}
    if args.timeit:
        stmts = dict(item.split("=", 1) for item in args.timeit)
        rounds = [{side: python_json(dirs[side], TIMEIT, args.timeit_setup, json.dumps(stmts)) for side in SIDES} for _ in range(5)]
        out["timeit_us_per_call"] = {
            "setup": args.timeit_setup,
            "statements": stmts,
            "median_of_round_bests": {
                label: {side: round(statistics.median(r[side][label] for r in rounds), 2) for side in SIDES} for label in stmts
            },
            "rounds": rounds,
        }
    if args.sweep:
        out["sweep_coedit_bench_sites3"] = {n: sweep(dirs, int(n)) for n in args.sweep.split(",")}
        ok &= all(s["all_ok"] and s["counts_identical"] for s in out["sweep_coedit_bench_sites3"].values())
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


def _quote(arg: str) -> str:
    return arg if arg and all(c.isalnum() or c in "-_.,:/=" for c in arg) else "'" + arg.replace("'", "'\\''") + "'"


if __name__ == "__main__":
    sys.exit(main())
