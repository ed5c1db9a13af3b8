"""Cost instrumentation and benchmark workloads.

The asserted quantities are abstract units (transformation invocations for
the op-buffer engine, object visits for the sequence engine); wall times are
carried along for information only since they depend on the machine.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field
from typing import List

CSV_COLUMNS = [
    "run_id",
    "engine",
    "sites",
    "doc_len",
    "ops",
    "max_c",
    "mean_c",
    "C",
    "C_t",
    "local_ns_mean",
    "remote_ns_mean",
    "init_cost",
    "gc_total",
    "converged",
]


@dataclass
class MetricsBundle:
    """A run's one cost record: every replica and a sequencer server count into
    it, and the harness times each op into it. An engine alone gets its own."""

    engine: str = ""  # named by the run
    c_samples: List[int] = field(default_factory=list)  # OT: per executed remote op, the ops it was folded past
    buffer_length_samples: List[int] = field(default_factory=list)  # OT: a replica's log length after each op
    search_steps_per_op: List[int] = field(default_factory=list)  # WOOT
    local_ns: List[int] = field(default_factory=list)
    remote_ns: List[int] = field(default_factory=list)
    final_visible: int = 0  # C at quiescence
    final_total: int = 0  # C_t at quiescence
    init_cost: int = 0
    gc_total: int = 0
    buffer_final: int = 0
    insert_tie_seen: bool = False  # OT: two inserts at one position were folded
    wire_bytes: int = 0  # every envelope the simulator encoded; kept out of summary()
    wire_messages: int = 0

    @property
    def transform_total(self) -> int:  # one transform per op folded past
        return sum(self.c_samples)

    @property
    def max_c(self) -> int:
        return max(self.c_samples, default=0)

    @property
    def mean_c(self) -> float:
        return sum(self.c_samples) / len(self.c_samples) if self.c_samples else 0.0

    def summary(self) -> dict:
        return {
            "engine": self.engine,
            "max_c": self.max_c,
            "mean_c": round(self.mean_c, 3),
            "C": self.final_visible,
            "C_t": self.final_total,
            "local_ns_mean": _mean(self.local_ns),
            "remote_ns_mean": _mean(self.remote_ns),
            **_percentiles("local_ns", self.local_ns),
            **_percentiles("remote_ns", self.remote_ns),
            "init_cost": self.init_cost,
            "gc_total": self.gc_total,
            "transform_total": self.transform_total,
            "search_steps_total": sum(self.search_steps_per_op),
            "buffer_final": self.buffer_final,
            "insert_tie_seen": self.insert_tie_seen,
        }


def _mean(xs) -> int:
    return int(sum(xs) / len(xs)) if xs else 0


def _percentiles(name: str, xs) -> dict:
    """`name`_p50 and `name`_p99 by the nearest-rank method; 0 with no samples."""
    ranked = sorted(xs)
    return {f"{name}_p{p}": ranked[-(-p * len(ranked) // 100) - 1] if ranked else 0 for p in (50, 99)}


def csv_row(run_id: str, report) -> dict:
    row = dict(
        report.metrics.summary(),
        run_id=run_id,
        sites=report.sites,
        doc_len=len(report.initial),
        ops=len(report.script),
        converged=report.converged,
    )
    return {k: row[k] for k in CSV_COLUMNS}


def rows_to_csv(rows: List[dict]) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


# ---------------------------------------------------------------------------
# benchmark workloads


@dataclass(frozen=True)
class Workload:
    doc_len: int = 10_000
    sites: int = 3
    n_ops: int = 100
    window: int = 10  # max ops in flight
    seed: int = 0


def measure_init(doc_len: int) -> dict:
    """Session start cost: the sequence engine materialises one object per
    character, the buffer engine starts empty."""
    from .ot import OtSite
    from .woot import WootSite

    doc = "a" * doc_len
    t0 = time.perf_counter_ns()
    ot = OtSite(site=0, state=doc)
    ot_ns = time.perf_counter_ns() - t0
    t0 = time.perf_counter_ns()
    woot = WootSite.create(0, doc)
    woot_ns = time.perf_counter_ns() - t0
    return {
        "doc_len": doc_len,
        "ot_init_entries": len(ot.buffer),
        "ot_init_ns": ot_ns,
        "woot_init_objects": woot.metrics.init_cost,
        "woot_init_ns": woot_ns,
    }


def _workload_scenario(w: Workload, window: int, mode: str, sites: int):
    from .harness import FuzzSpec, Scenario
    from .netsim import FixedLatency

    return Scenario(
        initial="a" * w.doc_len,
        sites=sites,
        mode=mode,
        latency=FixedLatency(1),
        seed=w.seed,
        fuzz=FuzzSpec(n_ops=w.n_ops, insert_ratio=0.7, window=window, gap=8),
    )


def bench(w: Workload) -> dict:
    """Engine cost table over init, sequential-only, and concurrent workloads."""
    from .harness import run_scenario

    init = measure_init(w.doc_len)

    seq_ot = run_scenario(_workload_scenario(w, window=1, mode="sequencer", sites=w.sites), "ot")
    seq_woot = run_scenario(_workload_scenario(w, window=1, mode="causal", sites=w.sites), "woot")
    conc_ot = run_scenario(_workload_scenario(w, window=w.window, mode="sequencer", sites=w.sites), "ot")
    conc_woot = run_scenario(_workload_scenario(w, window=w.window, mode="causal", sites=w.sites), "woot")

    checks = {
        "ot_sequential_transforms_zero": seq_ot.metrics.transform_total == 0,
        "woot_search_steps_every_op": all(s > 0 for s in seq_woot.metrics.search_steps_per_op),
        "max_c_within_window": conc_ot.metrics.max_c <= w.window,
        "contents_dominate_concurrency": conc_woot.metrics.final_visible / max(conc_ot.metrics.max_c, 1) >= 100,
        "tombstones_retained": conc_woot.metrics.final_total >= conc_woot.metrics.final_visible,
        "all_converged": all(r.converged for r in (seq_ot, seq_woot, conc_ot, conc_woot)),
    }
    table = []
    for name, rep in (("sequential_ot", seq_ot), ("sequential_woot", seq_woot), ("concurrent_ot", conc_ot), ("concurrent_woot", conc_woot)):
        s = rep.metrics.summary()
        s["workload"] = name
        table.append(s)
    return {"init": init, "table": table, "checks": checks, "ok": all(checks.values())}
