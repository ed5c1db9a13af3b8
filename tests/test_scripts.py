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


def test_bench_pairs_help():
    assert "--parent" in run_script("scripts/bench_pairs.py", "--help")


def test_bench_pairs_counts_source_lines_as_wc():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    wc = subprocess.run("wc -l src/coedit/*.py", shell=True, cwd=ROOT, capture_output=True, text=True, check=True)
    total = wc.stdout.splitlines()[-1].split()
    assert total[1] == "total" and bench_pairs.source_lines(ROOT) == int(total[0]) > 0


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
