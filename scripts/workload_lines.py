"""Function-body lines of src/coedit that no benchmark session executes.

    python3 scripts/workload_lines.py [--workloads fuzz_mixed,woot_bigdoc] [--seed 7] [--sessions K]

Run from the repository root. For each named workload (default: all four),
the batch of the seed is built by perfbench/workloads.py, which is read and
not changed, and its sessions run through `coedit.harness.run_scenario`,
all under `sys.settrace`; with --sessions only the first K sessions of each
batch run. The output lists, per module of src/coedit, each function with
body lines that ran neither in a session nor while its batch was built: how
many of its body lines those are, their numbers, and "never run" when none
of its body ran. A function's body lines are the lines its compiled code
holds, less its `def` line; comprehensions and lambdas count as lines of
the function around them. Exit code 0.
"""

from __future__ import annotations

import argparse
import sys
from inspect import CO_OPTIMIZED
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coedit"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from coedit.harness import run_scenario  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def body_lines(path: Path) -> dict:
    """qualified name -> the function's body lines, for every function
    compiled from the file."""
    functions = {}
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
        if code.co_flags & CO_OPTIMIZED and not code.co_name.startswith("<"):
            lines = {line for _, _, line in code.co_lines() if line is not None}
            functions[code.co_qualname] = lines - {code.co_firstlineno}
    return functions


def executed_lines(names, seed: int, sessions) -> set:
    """(file name, line) of every line in src/coedit run while the named
    workloads' batches are built and their first `sessions` sessions (all
    of them for None) run."""
    prefix = str(PACKAGE)
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(call)
    try:
        for name in names:
            batch = [s for round_ in WORKLOADS[name].batch(seed) for s in round_]
            for scenario, engine in batch[:sessions]:
                run_scenario(scenario, engine)
    finally:
        sys.settrace(None)
    return hits


def ranges(lines) -> str:
    """Sorted line numbers with each run of consecutive ones as lo-hi."""
    out, lines = [], sorted(lines)
    start = prev = lines[0]
    for n in lines[1:] + [None]:
        if n != prev + 1:
            out.append(str(start) if start == prev else f"{start}-{prev}")
            start = n
        prev = n
    return ", ".join(out)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(WORKLOADS), help="comma-separated workload names")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--sessions", type=int, default=None, help="run only the first K sessions of each batch")
    args = p.parse_args(argv)
    names = args.workloads.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        p.error(f"unknown workload(s) {', '.join(unknown)}; choose from {', '.join(WORKLOADS)}")
    hits = executed_lines(names, args.seed, args.sessions)
    print(f"workloads {','.join(names)}  seed {args.seed}  sessions per batch {args.sessions or 'all'}")
    for path in sorted(PACKAGE.glob("*.py")):
        functions = body_lines(path)
        report, unrun_total = [], 0
        for name, lines in sorted(functions.items(), key=lambda item: min(item[1], default=0)):
            unrun = {n for n in lines if (str(path), n) not in hits}
            if unrun:
                unrun_total += len(unrun)
                never = "  never run" if unrun == lines else ""
                report.append(f"  {name}: {len(unrun)}/{len(lines)} unrun: {ranges(unrun)}{never}")
        total = sum(map(len, functions.values()))
        print(f"{path.relative_to(ROOT)}: {unrun_total} of {total} body lines unrun", *report, sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
