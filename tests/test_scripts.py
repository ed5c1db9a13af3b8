"""Smoke runs of the scripts under scripts/, each in its own interpreter
from the repository root, as their docstrings say to run them."""

import importlib.util
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(*args: str) -> str:
    done = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_fig1_demo():
    out = run_script("scripts/fig1_demo.py")
    assert out.splitlines()[-1] == "converged: both engines end at 'ace'"


def test_cross_engine_agreement():
    out = run_script("scripts/cross_engine_agreement.py", "20", "0")
    assert "tie-free disagreement" not in out
    last = re.fullmatch(r"20 scenarios: \d+ excluded \(insert ties\), (\d+)/(\d+) agree \(rate 1\.000\)", out.splitlines()[-1])
    assert last and last[1] == last[2] != "0"


def test_long_session_memory():
    """Small sessions: both pass every check, and their logs and the bridge
    stay shorter than the sessions."""
    out = run_script("scripts/long_session_memory.py", "--ops", "400", "--seq-ops", "300").splitlines()
    rows = {}
    for line in out:
        m = re.fullmatch(r"(\w+) +(\d+) ops  current +[\d.]+ MiB  peak +[\d.]+ MiB  longest log +(\d+)  longest bridge +(\d+)  ok True", line)
        assert m, line
        rows[m[1]] = tuple(map(int, m.group(2, 3, 4)))
    assert rows["symmetric"][0] == 400 and 0 < rows["symmetric"][1] < 100 and rows["symmetric"][2] == 0
    assert rows["sequencer"][0] == 300 and 0 < rows["sequencer"][1] < 300 and 0 < rows["sequencer"][2] < 300


def test_bench_pairs_help():
    assert "--parent" in run_script("scripts/bench_pairs.py", "--help")


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_bench_pairs_counts_source_lines_as_wc():
    bench_pairs = load_bench_pairs()
    wc = subprocess.run("wc -l src/coedit/*.py", shell=True, cwd=ROOT, capture_output=True, text=True, check=True)
    total = wc.stdout.splitlines()[-1].split()
    assert total[1] == "total" and bench_pairs.source_lines(ROOT) == int(total[0]) > 0


def synthetic_pairs(parent, change):
    return [{"parent": {"m": p}, "change": {"m": c}} for p, c in zip(parent, change)]


TIGHT = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]  # parent IQR/median 0.015
NOISY = [6.0, 14.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0]  # parent IQR/median 0.35


def test_bench_pairs_verdict_on_synthetic_pairs():
    """`worse` beyond the bound whatever the spread; `unresolved` when the
    parent's spread exceeds the bound unless every change run beats every
    parent run; `within bound` otherwise. Both directions."""
    summarize = load_bench_pairs().summarize
    cases = [
        (TIGHT, [x * 1.3 for x in TIGHT], False, "worse"),
        (TIGHT, [x * 1.2 for x in TIGHT], False, "within bound"),
        (TIGHT, [x * 0.5 for x in TIGHT], False, "within bound"),
        (NOISY, [x * 1.3 for x in NOISY], False, "worse"),
        (NOISY, [x * 1.1 for x in NOISY], False, "unresolved"),
        (NOISY, [x * 0.9 for x in NOISY], False, "unresolved"),  # better in the median, not in every run
        (NOISY, [5.0] * 10, False, "within bound"),  # every change run beats every parent run
        (TIGHT, [x * 0.7 for x in TIGHT], True, "worse"),
        (TIGHT, [x * 0.8 for x in TIGHT], True, "within bound"),
        (NOISY, [x * 0.9 for x in NOISY], True, "unresolved"),
        (NOISY, [15.0] * 10, True, "within bound"),
    ]
    for parent, change, higher_better, verdict in cases:
        assert summarize(synthetic_pairs(parent, change), "m", higher_better, 0.25)["verdict"] == verdict, \
            (parent, change, higher_better)


def test_bench_pairs_no_regression():
    no_regression = load_bench_pairs().no_regression

    def workloads(*verdicts):
        return {f"w{k}": {"summary": {"m": {"verdict": v}, "n": {"verdict": "within bound"}}} for k, v in enumerate(verdicts)}

    assert no_regression(workloads("within bound", "within bound")) is True
    assert no_regression(workloads("within bound", "unresolved")) is None
    assert no_regression(workloads("unresolved", "worse")) is False
    assert no_regression({**workloads("within bound"), "empty": {"summary": {}}}) is None  # no correct pair


def test_bench_pairs_exact_diff_keys():
    """The keys whose values differ between two exact blocks, a key in one
    block only among them; None when a run printed no block."""
    exact_diff_keys = load_bench_pairs().exact_diff_keys
    parent = 'exact {"ops": 1500, "framework.bytes_per_op": 122.204, "digests": ["a", "b"], "gone": 1}'
    change = 'exact {"ops": 1500, "framework.bytes_per_op": 114.204, "digests": ["a", "b"]}'
    assert exact_diff_keys(parent, change) == ["framework.bytes_per_op", "gone"]
    assert exact_diff_keys(parent, parent) == []
    assert exact_diff_keys(None, change) is None


def test_bench_pairs_flags_slow_reference():
    """A pair is flagged when either run's reference time is more than 25%
    above the median over the workload's runs, a missing time never."""
    flag_reference_slow = load_bench_pairs().flag_reference_slow
    times = [(39.0, 40.0), (58.0, 38.0), (40.0, 39.5), (38.5, 50.0), (40.5, None), (39.0, 48.0)]
    pairs = [{"seed": k, "reference_ns": {"parent": p, "change": c}} for k, (p, c) in enumerate(times)]
    assert flag_reference_slow(pairs) == [1]  # median 40.0: 58.0 is flagged, 50.0 and 48.0 are not
    assert [p["reference_slow"] for p in pairs] == [False, True, False, False, False, False]
    pairs[3]["reference_ns"]["change"] = 50.1
    assert flag_reference_slow(pairs) == [1, 3] and pairs[3]["reference_slow"]


def test_workload_lines_finds_unrun_bodies():
    """The first two fuzz_mixed sessions (one OT, one WOOT) never split a
    WOOT block, and the WOOT one makes local edits."""
    t0 = time.perf_counter()
    out = run_script("scripts/workload_lines.py", "--workloads", "fuzz_mixed", "--sessions", "2")
    assert time.perf_counter() - t0 < 10
    assert out.splitlines()[0] == "workloads fuzz_mixed  seed 7  sessions per batch 2"
    entries = dict(re.findall(r"^  (\S+): (.*)$", out, re.M))
    assert entries["ObjectSequence._split"].endswith("never run")
    local = entries.get("WootSite.local", "")
    assert "never run" not in local  # at most the NoOp refusal is unrun
