"""Measurement loops and metric definitions.

Load model: every session runs as a closed batch to quiescence through
`coedit.harness.run_scenario`, in one process and thread, one session at a
time. Ops are issued on the scenario's seeded schedule of virtual ticks and
messages are delayed by seeded virtual latencies; host time is wall time
around each `run_scenario` call, post-run checks included.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from coedit.harness import run_scenario

from tracing import EventClock, Probe, Tracer, installed
from workloads import Workload

HERE = Path(__file__).resolve().parent

# name -> unit; BENCHMARK.json lists the same names.
END_TO_END = {
    "ops_per_s": "ops/s",
    "local_p50_us": "us",
    "local_p99_us": "us",
    "remote_p50_us": "us",
    "remote_p99_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "model.happened_before_calls_per_remote": "count",
    "model.happened_before_us_per_remote": "us",
    "model.apply_external_us_per_op": "us",
    "ot.remote_us": "us",
    "ot.buffer_len_max": "count",
    "ot.server_process_us": "us",
    "ot.client_remote_us": "us",
    "ot.bridge_len_max": "count",
    "ot.transforms_per_remote": "count",
    "woot.local_us": "us",
    "woot.remote_us": "us",
    "woot.pos_to_id_us": "us",
    "woot.id_to_pos_us": "us",
    "woot.integrate_insert_us": "us",
    "woot.executable_us": "us",
    "woot.visible_count_calls_per_op": "count",
    "woot.search_steps_per_op": "count",
    "woot.tombstone_ratio": "ratio",
    "framework.encode_us": "us",
    "framework.decode_us": "us",
    "framework.site_self_us": "us",
    "framework.bytes_per_op": "B",
    "netsim.self_us_per_op": "us",
    "netsim.ready_checks_per_delivery": "count",
    "netsim.holdback_max": "count",
    "harness.tagging_us_per_op": "us",
    "harness.check_s": "s",
    "trace.overhead_frac": "ratio",
}

SETUP_PROBES = 9

# Calibration. The host's speed moves by up to about 1.45x for minutes at a
# time, on every vCPU at once, so even the best of many observations within
# one run moves with it. A fixed pure-Python routine, timed in bursts between
# sessions, slows by the same factor. The end-to-end times are scaled by
# REFERENCE_NS over the routine's time in the same run, read at the same
# depth of luck as the program's times: a program time is the best of one
# observation per pass, so the routine's figure is the quantile 1 / (passes
# + 1) of its burst minimums, about what the best of `passes` bursts gives.
# REFERENCE_NS is that figure on the host the benchmark was written on
# (2-vCPU Xeon VM, Python 3.11) in a fast spell, so the figures read as host
# time there.
REFERENCE_NS = 40_000
REFERENCE_BURST = 8


def failure_reason(scenario, report) -> str | None:
    """Why a finished session fails the harness checks, or None."""
    if not report.quiescent:
        return "messages left undelivered at quiescence"
    if not report.converged:
        return report.convergence_detail
    if not report.intention.ok:
        return "; ".join(report.intention.violations[:3])
    expected = scenario.fuzz.n_ops if scenario.fuzz is not None else len(scenario.script)
    if len(report.script) != expected:
        return f"generated {len(report.script)} of {expected} ops"
    return None


@dataclass
class Exact:
    """The paper's cost units and other exact counts over a set of sessions."""

    sessions: int = 0
    ops: int = 0
    max_c: int = 0
    c_sum: int = 0
    c_samples: int = 0
    transform_total: int = 0
    search_steps_total: int = 0
    search_samples: int = 0
    C: int = 0
    C_t: int = 0
    gc_total: int = 0
    wire_bytes: int = 0
    buffer_len_max: int = 0
    bridge_len_max: int = 0
    digests: list = field(default_factory=list)

    def add(self, report, probed: dict) -> None:
        m = report.metrics
        self.sessions += 1
        self.ops += len(report.script)
        self.max_c = max(self.max_c, m.max_c)
        self.c_sum += sum(m.c_samples)
        self.c_samples += len(m.c_samples)
        self.transform_total += m.transform_total
        self.search_steps_total += sum(m.search_steps_per_op)
        self.search_samples += len(m.search_steps_per_op)
        self.C += m.final_visible
        self.C_t += m.final_total
        self.gc_total += report.gc_total
        self.wire_bytes += probed["wire_bytes"]
        self.buffer_len_max = max(self.buffer_len_max, probed["buffer_len_max"])
        self.bridge_len_max = max(self.bridge_len_max, probed["bridge_len_max"])
        self.digests.append(report.trace_digest)

    def block(self) -> dict:
        return {
            "sessions": self.sessions,
            "ops": self.ops,
            "max_c": self.max_c,
            "mean_c": _ratio(self.c_sum, self.c_samples),
            "transform_total": self.transform_total,
            "search_steps_total": self.search_steps_total,
            "woot_engine_calls": self.search_samples,
            "C": self.C,
            "C_t": self.C_t,
            "gc_total": self.gc_total,
            "framework.bytes_per_op": _ratio(self.wire_bytes, self.ops),
            "ot.buffer_len_max": self.buffer_len_max,
            "ot.bridge_len_max": self.bridge_len_max,
            "trace_digests": list(self.digests),
        }


@dataclass
class Tally:
    """Timings and outcomes over a set of sessions."""

    sessions: int = 0
    failures: list = field(default_factory=list)
    ops: int = 0
    host_s: float = 0.0

    def ops_per_s(self) -> float:
        return self.ops / self.host_s


@dataclass
class Best:
    """The fastest observation over a run's passes of each timed piece of one
    session: every local and every remote op as the harness times them,
    every Simulator event, and the rest of the session's host time (set-up,
    the event loop between events, post-run checks)."""

    ops: int
    local_ns: array
    remote_ns: array
    event_ns: array
    rest_ns: int

    @classmethod
    def of(cls, report, host_ns: int, event_ns: array) -> "Best":
        m = report.metrics
        return cls(len(report.script), array("q", m.local_ns), array("q", m.remote_ns), event_ns, host_ns - sum(event_ns))

    def merge(self, other: "Best") -> bool:
        """Keep the faster of each piece. False, and no change, when the two
        runs of the session do not have the same pieces."""
        shape = lambda b: (b.ops, len(b.local_ns), len(b.remote_ns), len(b.event_ns))
        if shape(self) != shape(other):
            return False
        self.local_ns = array("q", map(min, self.local_ns, other.local_ns))
        self.remote_ns = array("q", map(min, self.remote_ns, other.remote_ns))
        self.event_ns = array("q", map(min, self.event_ns, other.event_ns))
        self.rest_ns = min(self.rest_ns, other.rest_ns)
        return True

    def host_ns(self) -> int:
        return sum(self.event_ns) + self.rest_ns


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return float(ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)])


def reference_ns() -> int:
    """Host time of one run of a fixed routine that does the kind of work the
    library does (tuples, dicts, lists, short strings) and none of its code."""
    t0 = time.perf_counter_ns()
    seen, out = {}, []
    for i in range(100):
        key = (i % 17, i >> 2)
        seen[key] = seen.get(key, 0) + 1
        out.append(str(i)[-1:] + "x")
    out.sort()
    return time.perf_counter_ns() - t0


def run_session(scenario, engine: str, probe: Probe, tracer: Tracer | None = None) -> tuple:
    """Run one session: (report or None, failure reason or None, host ns,
    the probe's figures)."""
    span = tracer.open("run_scenario") if tracer else None
    t0 = time.perf_counter_ns()
    try:
        report = run_scenario(scenario, engine)
        reason = failure_reason(scenario, report)
    except Exception:  # any escaping exception fails the session, and the run
        report, reason = None, "exception: " + traceback.format_exc(limit=3)
    host_ns = time.perf_counter_ns() - t0
    if tracer:
        tracer.close(span)
    if reason is not None:
        reason = f"{engine}/{scenario.mode} seed {scenario.seed}: {reason}"
    return report, reason, host_ns, probe.take()


def run_round(sessions, probe: Probe, tally: Tally, exact: Exact, tracer: Tracer | None = None) -> None:
    """Run one round's sessions, adding host time and outcomes to `tally`
    and exact counts to `exact`."""
    for scenario, engine in sessions:
        report, reason, host_ns, probed = run_session(scenario, engine, probe, tracer)
        tally.sessions += 1
        tally.host_s += host_ns / 1e9
        if reason is not None:
            tally.failures.append(reason)
            continue
        tally.ops += len(report.script)
        exact.add(report, probed)


def setup_seconds(first_round, src: Path) -> float:
    """Median over fresh interpreters of `import coedit` plus building the
    sites of the workload's first round."""
    spec = {
        "src": str(src),
        "sessions": [
            {"engine": engine, "mode": scn.mode, "sites": scn.sites, "doc": scn.initial}
            for scn, engine in first_round
        ],
    }
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            input=json.dumps(spec),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(out.stdout))
    return statistics.median(times)


def measure(workload: Workload, seed: int, seconds: float, src: Path) -> dict:
    """Untraced run: the end-to-end metrics plus the exact-count block.

    The run passes over the seed's whole batch again and again, until the
    next pass would end past `seconds` (by the mean pass time so far); the
    first pass always runs, and `peak_rss_mb` is read when it is done. Every
    pass must give the same exact-count block ("consistent").

    The host's speed drifts by up to about 1.5x over seconds, so a time
    averaged over a run mostly measures the host. Each session's host time
    is therefore split into small pieces (every local and remote op, every
    Simulator event, and the rest), and each piece keeps the fastest of its
    observations over the passes (`Best`). The latency percentiles are taken
    over the ops' fastest times, and `ops_per_s` divides the ops by the sum
    of the pieces' fastest times. Slow spells that outlast the run are
    taken out by calibration against the reference routine (REFERENCE_NS),
    timed before the first session and after every session; "raw" holds the
    figures before it.
    """
    batch = workload.batch(seed)
    setup_s = setup_seconds(batch[0], src)
    sessions = [s for rnd in batch for s in rnd]
    probe, clock = Probe(), EventClock()
    best = [None] * len(sessions)
    blocks, failures, pass_s = [], [], []
    bursts = [min(reference_ns() for _ in range(REFERENCE_BURST))]
    with installed(probe, clock):
        start = time.perf_counter()
        while True:
            exact, host_ns = Exact(), 0
            for i, (scenario, engine) in enumerate(sessions):
                report, reason, ns, probed = run_session(scenario, engine, probe)
                events = clock.take()
                host_ns += ns
                bursts.append(min(reference_ns() for _ in range(REFERENCE_BURST)))
                if reason is not None:
                    failures.append(reason)
                    continue
                exact.add(report, probed)
                piece = Best.of(report, ns, events)
                if best[i] is None:
                    best[i] = piece
                elif not best[i].merge(piece):
                    failures.append(f"{engine}/{scenario.mode} seed {scenario.seed}: timed pieces differ between passes")
            blocks.append(exact.block())
            pass_s.append(host_ns / 1e9)
            if len(blocks) == 1:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(blocks) > seconds:
                break
    ref_ns = percentile(bursts, 100 / (len(blocks) + 1))
    done = [b for b in best if b is not None]
    local = [ns for b in done for ns in b.local_ns]
    remote = [ns for b in done for ns in b.remote_ns]
    raw, metrics = {}, {}
    if local and remote:
        raw = {
            "ops_per_s": sum(b.ops for b in done) / (sum(b.host_ns() for b in done) / 1e9),
            "local_p50_us": percentile(local, 50) / 1e3,
            "local_p99_us": percentile(local, 99) / 1e3,
            "remote_p50_us": percentile(remote, 50) / 1e3,
            "remote_p99_us": percentile(remote, 99) / 1e3,
            "setup_s": setup_s,
        }
        scale = REFERENCE_NS / ref_ns
        metrics = {name: v / scale if name == "ops_per_s" else v * scale for name, v in raw.items()}
        metrics["peak_rss_mb"] = peak_rss_mb
    return {
        "reference_ns": ref_ns,
        "raw": raw,
        "passes": len(blocks),
        "elapsed_s": elapsed,
        "pass_s": pass_s,
        "sessions": len(sessions) * len(blocks),
        "ops": blocks[0]["ops"],
        "samples": (len(local), len(remote)),
        "failures": failures,
        "consistent": all(b == blocks[0] for b in blocks),
        "exact": blocks[0],
        "metrics": metrics,
    }


def measure_traced(workload: Workload, seed: int, seconds: float, spans_path: Path | None) -> dict:
    """Traced run: alternate an untraced and a traced pass over the batch
    until the next pair would end past `seconds` (at least one pair).

    Each pass runs the same sessions, so exact counts must match pass for
    pass ("consistent"); tracing must not change behaviour.
    """
    rounds = workload.batch(seed)
    probe, tracer = Probe(), Tracer()
    plain, traced = Tally(), Tally()
    blocks = []
    start = time.perf_counter()
    pairs = 0
    while True:
        for tally, pass_tracer in ((plain, None), (traced, tracer)):
            exact = Exact()
            with installed(probe, *([pass_tracer] if pass_tracer else [])):
                for sessions in rounds:
                    run_round(sessions, probe, tally, exact, pass_tracer)
            blocks.append(exact.block())
        pairs += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / pairs > seconds:
            break
    spans, check_ns = tracer.totals()
    metrics = layer_metrics(spans, check_ns, tracer, blocks[0], traced, plain) if traced.ops and plain.ops else {}
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_path)
    return {
        "pairs": pairs,
        "elapsed_s": elapsed,
        "sessions": plain.sessions + traced.sessions,
        "failures": plain.failures + traced.failures,
        "consistent": all(b == blocks[0] for b in blocks),
        "exact": blocks[0],
        "metrics": metrics,
        "split": layer_split(spans, tracer),
    }


def layer_metrics(t: dict, check_ns: int, tracer: Tracer, exact: dict, traced: Tally, plain: Tally) -> dict:
    """The per-layer metrics from span totals `t`, the tracer's counters and
    the exact counts of one pass."""
    empty = {"n": 0, "ns": 0, "self_ns": 0}
    span = lambda name: t.get(name, empty)
    calls = lambda name: tracer.counters.get(name, [0, 0])[0]
    counter_ns = lambda name: tracer.counters.get(name, [0, 0])[1]
    mean_us = lambda name: _ratio(span(name)["ns"], span(name)["n"]) / 1e3
    counter_us = lambda name: _ratio(counter_ns(name), calls(name)) / 1e3
    ops = traced.ops
    deliveries = span("framework.site_deliver")["n"]
    site_calls = span("framework.site_generate")["n"] + deliveries
    woot_calls = span("woot.local")["n"] + span("woot.remote")["n"]
    return {
        "model.happened_before_calls_per_remote": _ratio(calls("model.happened_before"), deliveries),
        "model.happened_before_us_per_remote": _ratio(counter_ns("model.happened_before"), deliveries) / 1e3,
        "model.apply_external_us_per_op": _ratio(counter_ns("model.apply_external"), ops) / 1e3,
        "ot.remote_us": mean_us("ot.site_remote"),
        "ot.buffer_len_max": exact["ot.buffer_len_max"],
        "ot.server_process_us": mean_us("ot.server_process"),
        "ot.client_remote_us": mean_us("ot.client_remote"),
        "ot.bridge_len_max": exact["ot.bridge_len_max"],
        "ot.transforms_per_remote": exact["mean_c"],
        "woot.local_us": mean_us("woot.local"),
        "woot.remote_us": mean_us("woot.remote"),
        "woot.pos_to_id_us": counter_us("woot.pos_to_id"),
        "woot.id_to_pos_us": counter_us("woot.id_to_pos"),
        "woot.integrate_insert_us": counter_us("woot.integrate_insert"),
        "woot.executable_us": counter_us("woot.executable"),
        "woot.visible_count_calls_per_op": _ratio(calls("woot.visible_count"), woot_calls),
        "woot.search_steps_per_op": _ratio(exact["search_steps_total"], exact["woot_engine_calls"]),
        "woot.tombstone_ratio": _ratio(exact["C_t"], exact["C"]),
        "framework.encode_us": mean_us("framework.encode"),
        "framework.decode_us": mean_us("framework.decode"),
        "framework.site_self_us": _ratio(
            span("framework.site_generate")["self_ns"] + span("framework.site_deliver")["self_ns"], site_calls
        ) / 1e3,
        "framework.bytes_per_op": exact["framework.bytes_per_op"],
        "netsim.self_us_per_op": _ratio(span("netsim.run")["self_ns"], ops) / 1e3,
        "netsim.ready_checks_per_delivery": _ratio(calls("netsim.causally_ready"), tracer.causal_deliveries),
        "netsim.holdback_max": tracer.holdback_max,
        "harness.tagging_us_per_op": _ratio(
            span("harness.generate_cb")["self_ns"] + span("harness.deliver_cb")["self_ns"], ops
        ) / 1e3,
        "harness.check_s": _ratio(check_ns, traced.sessions) / 1e9,
        "trace.overhead_frac": plain.ops_per_s() / traced.ops_per_s() - 1,
    }


def layer_split(t: dict, tracer: Tracer) -> dict:
    """Share of traced host time per layer. The engine shares include the
    model counters that ran inside them, so the shares need not sum to 1."""
    total = t.get("run_scenario", {}).get("ns", 0)
    ns = lambda *names: sum(t.get(n, {}).get("ns", 0) for n in names)
    self_ns = lambda *names: sum(t.get(n, {}).get("self_ns", 0) for n in names)
    parts = {
        "woot": ns("woot.local", "woot.remote"),
        "ot": ns("ot.site_local", "ot.site_remote", "ot.client_local", "ot.client_remote", "ot.server_process"),
        "model.happened_before": tracer.counters.get("model.happened_before", [0, 0])[1],
        "framework": ns("framework.encode", "framework.decode") + self_ns("framework.site_generate", "framework.site_deliver"),
        "netsim": self_ns("netsim.run"),
        "harness": self_ns("harness.generate_cb", "harness.deliver_cb", "run_scenario"),
    }
    return {name: round(_ratio(v, total), 3) for name, v in parts.items()}
