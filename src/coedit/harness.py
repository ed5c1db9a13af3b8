"""Scenario execution and correctness checking.

A Scenario (scripted or fuzzed) runs to quiescence on either engine through
the network simulator. The run is checked for:

  convergence      - identical final texts everywhere (and identical internal
                     sequences for the CRDT engine);
  intention proxies - (a) an inserted character survives iff nothing deleted
                     it, (b) every delete removes exactly the instance it
                     targeted at its origin, (c) surviving characters typed
                     one after another at a site keep their relative order;
  liveness          - no message left in a hold-back queue at quiescence.

Character instances are tracked by tagging every document position with the
(origin, seq) of the op that created it, replicated alongside the text. A tag
list only gains and loses entries, so a site's own inserts stay, in its own
list, in the order its user typed them. Proxy (c) ranks them there once the
run is over and walks every site's list for an instance ranked below the one
of the same origin seen just before it: O(sites x doc) per run.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from .model import (
    BoundsError,
    Delete,
    ExternalOp,
    Insert,
    NoOp,
    SiteId,
    format_op,
    parse_op,
)
from .framework import Site, WireMessage
from .netsim import (
    MODES,
    FixedLatency,
    LatencyModel,
    SimConfig,
    Simulator,
    UniformLatency,
)
from .ot import OtSite, SequencerClient, SequencerServer
from .woot import SkipConversionSite, WootSite
from . import metrics as metrics_mod


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class ScriptEntry:
    tick: int
    site: SiteId
    op: ExternalOp


@dataclass(frozen=True)
class FuzzSpec:
    n_ops: int = 50
    insert_ratio: float = 0.7
    alphabet: str = "abcdefghijklmnopqrstuvwxyz"
    # when set, ops are issued in rounds of at most `window` with `gap` quiet
    # ticks between rounds, bounding the number of in-flight ops
    window: Optional[int] = None
    gap: int = 25


@dataclass(frozen=True)
class Scenario:
    initial: str = ""
    sites: int = 2
    mode: str = "causal"
    latency: LatencyModel = FixedLatency(1)
    seed: int = 0
    script: Optional[Tuple[ScriptEntry, ...]] = None
    fuzz: Optional[FuzzSpec] = None

    def __post_init__(self):
        if (self.script is None) == (self.fuzz is None):
            raise ScenarioError("exactly one of script / fuzz must be given")
        if self.sites < 1:
            raise ScenarioError(f"a scenario needs at least 1 site, got {self.sites}")


@dataclass
class IntentionVerdict:
    survivors_ok: bool = True
    deletions_ok: bool = True
    order_ok: bool = True
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.survivors_ok and self.deletions_ok and self.order_ok


@dataclass
class RunReport:
    engine: str
    ablation: bool
    seed: int
    initial: str
    sites: int
    final_states: Dict[SiteId, str]
    is_dumps: Dict[SiteId, str]
    converged: bool
    convergence_detail: str
    intention: IntentionVerdict
    quiescent: bool
    gc_total: int
    metrics: "metrics_mod.MetricsBundle"
    trace: List[str]
    script: Tuple[ScriptEntry, ...]  # ops actually generated (replayable)

    @property
    def trace_digest(self) -> str:
        return hashlib.sha256("\n".join(self.trace).encode()).hexdigest()

    @property
    def ok(self) -> bool:
        return self.converged and self.intention.ok and self.quiescent

    def to_dict(self) -> dict:
        return {
            "engine": self.engine,
            "ablation": self.ablation,
            "seed": self.seed,
            "final_states": {str(k): v for k, v in self.final_states.items()},
            "converged": self.converged,
            "convergence_detail": self.convergence_detail,
            "intention": asdict(self.intention),
            "quiescent": self.quiescent,
            "gc_total": self.gc_total,
            "trace_digest": self.trace_digest,
            "metrics": self.metrics.summary(),
        }


# ---------------------------------------------------------------------------
# scenario files


def _escape(text: str) -> str:
    """A text field (the doc, an inserted character) as one ASCII token with
    no whitespace: Python string escapes, and \\x20 for a space."""
    return text.encode("unicode_escape").decode("ascii").replace(" ", "\\x20")


def _unescape(token: str) -> str:
    try:
        return token.encode("ascii", "backslashreplace").decode("unicode_escape")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"bad escape in {token!r}: {exc}") from exc


def _entry_to_text(e: ScriptEntry) -> str:
    op = f"I {e.op.position} {_escape(e.op.character)}" if isinstance(e.op, Insert) else format_op(e.op)
    return f"@{e.tick} s{e.site} {op}"


def scenario_to_text(s: Scenario) -> str:
    if s.script is None:
        raise ScenarioError("only scripted scenarios have a file form")
    lines = [f"sites {s.sites}", f"doc {_escape(s.initial)}", f"mode {s.mode}", f"seed {s.seed}"]
    if isinstance(s.latency, FixedLatency):
        lines.append(f"latency fixed {s.latency.ticks}")
    else:
        lines.append(f"latency uniform {s.latency.lo} {s.latency.hi}")
    lines.extend(_entry_to_text(e) for e in s.script)
    return "\n".join(lines) + "\n"


def _line_from_text(line: str, fields: dict, script: List[ScriptEntry]) -> None:
    parts = line.split()
    if line.startswith("@"):
        if len(parts) < 3 or not parts[1].startswith("s"):
            raise ValueError("expected '@tick sN op'")
        op = Insert(int(parts[3]), _unescape(parts[4])) if parts[2] == "I" and len(parts) == 5 else parse_op(" ".join(parts[2:]))
        script.append(ScriptEntry(int(parts[0][1:]), int(parts[1][1:]), op))
    elif parts[0] in ("sites", "seed") and len(parts) == 2:
        fields[parts[0]] = int(parts[1])
    elif parts[0] == "doc" and len(parts) <= 2:
        fields["initial"] = _unescape(parts[1]) if len(parts) == 2 else ""
    elif parts[0] == "mode" and len(parts) == 2:
        if parts[1] not in MODES:
            raise ValueError(f"unknown mode {parts[1]!r}")
        fields["mode"] = parts[1]
    elif parts[:2] == ["latency", "fixed"] and len(parts) == 3:
        fields["latency"] = FixedLatency(int(parts[2]))
    elif parts[:2] == ["latency", "uniform"] and len(parts) == 4:
        if int(parts[2]) > int(parts[3]):
            raise ValueError("uniform latency needs lo <= hi")
        fields["latency"] = UniformLatency(int(parts[2]), int(parts[3]))
    else:
        raise ValueError("unknown header or wrong number of fields")


def scenario_from_text(text: str) -> Scenario:
    """Parse a scenario file; any malformed line raises ScenarioError naming it."""
    fields = {"initial": "", "sites": None, "mode": "causal", "latency": FixedLatency(1), "seed": 0}
    script: List[ScriptEntry] = []
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            try:
                _line_from_text(line, fields, script)
            except (ValueError, IndexError) as exc:
                raise ScenarioError(f"line {n} {line!r}: {exc}") from exc
    if fields["sites"] is None:
        raise ScenarioError("missing 'sites' header")
    return Scenario(**fields, script=tuple(script))


def fig1_scenario() -> Scenario:
    """Two sites on "abe": site 0 deletes 'b' while site 1 inserts 'c'."""
    return Scenario(
        initial="abe",
        sites=2,
        mode="causal",
        latency=FixedLatency(2),
        seed=0,
        script=(
            ScriptEntry(1, 0, Delete(1)),
            ScriptEntry(1, 1, Insert(2, "c")),
        ),
    )


# ---------------------------------------------------------------------------
# run


class _Run:
    """Mutable state of one scenario execution."""

    def __init__(self, scenario: Scenario, engine: str, ablation: bool):
        if engine not in ("ot", "woot"):
            raise ScenarioError(f"unknown engine {engine!r}")
        if ablation and engine != "woot":
            raise ScenarioError("the conversion-skip ablation only applies to the woot engine")
        if scenario.mode == "sequencer" and engine != "ot":
            raise ScenarioError("sequencer mode is only wired to the ot engine")
        if engine == "ot" and scenario.mode == "causal" and scenario.sites > 2:
            raise ScenarioError("symmetric ot supports 2 sites; use sequencer mode for more")
        self.scenario = scenario
        self.engine_name = engine
        self.ablation = ablation
        ids = list(range(scenario.sites))
        self.server: Optional[SequencerServer] = None
        if engine == "woot":
            woot_cls = SkipConversionSite if ablation else WootSite
            engines = {i: woot_cls.create(i, scenario.initial) for i in ids}
        elif scenario.mode == "sequencer":
            engines = {i: SequencerClient(site=i, state=scenario.initial) for i in ids}
            self.server = SequencerServer(client_ids=ids, state=scenario.initial)
        else:
            engines = {i: OtSite(site=i, state=scenario.initial) for i in ids}
        self.sites = {i: Site(id=i, engine=engines[i], external=scenario.initial) for i in ids}

        # instance tags: one per character position, mirrored per site
        init_tags = [("init", k) for k in range(len(scenario.initial))]
        self.tags: Dict[SiteId, list] = {i: list(init_tags) for i in ids}
        self.init_tags = set(init_tags)
        self.insert_tags: set = set()
        self.delete_targets: Dict[tuple, tuple] = {}  # delete op key -> tag
        self.intention = IntentionVerdict()
        self.local_ns: List[int] = []
        self.remote_ns: List[int] = []
        self.generated: List[ScriptEntry] = []

        # generation plan
        self.script_queue: Dict[tuple, list] = {}
        if scenario.script is not None:
            for e in scenario.script:
                if not 0 <= e.site < scenario.sites:
                    raise ScenarioError(f"script references unknown site {e.site}")
                self.script_queue.setdefault((e.tick, e.site), []).append(e.op)
        self.fuzz_rng = random.Random(f"ops-{scenario.seed}")

        self.sim = Simulator(
            SimConfig(scenario.mode, scenario.latency, scenario.seed),
            ids,
            self._generate,
            self._deliver,
            lambda s: self.sites[s].engine.clock,
            sequencer_server=self.server,
        )
        if scenario.script is not None:
            for e in scenario.script:
                self.sim.schedule_generation(e.tick, e.site)
        elif scenario.fuzz.window is None:
            span = max(2, scenario.fuzz.n_ops)
            for _ in range(scenario.fuzz.n_ops):
                self.sim.schedule_generation(self.fuzz_rng.randint(1, span), self.fuzz_rng.randrange(scenario.sites))
        else:
            tick, placed = 1, 0
            while placed < scenario.fuzz.n_ops:
                burst = min(scenario.fuzz.window, scenario.fuzz.n_ops - placed)
                for _ in range(burst):
                    self.sim.schedule_generation(tick, self.fuzz_rng.randrange(scenario.sites))
                placed += burst
                tick += scenario.fuzz.gap

    # -- op generation ------------------------------------------------------

    def _pick_fuzz_op(self, text: str) -> ExternalOp:
        spec = self.scenario.fuzz
        if text and self.fuzz_rng.random() > spec.insert_ratio:
            return Delete(self.fuzz_rng.randrange(len(text)))
        return Insert(self.fuzz_rng.randint(0, len(text)), self.fuzz_rng.choice(spec.alphabet))

    def _generate(self, site_id: SiteId, tick: int) -> Optional[WireMessage]:
        site = self.sites[site_id]
        scripted = self.scenario.script is not None
        if scripted:
            queue = self.script_queue.get((tick, site_id), [])
            if not queue:
                return None
            eo = queue.pop(0)
        else:
            eo = self._pick_fuzz_op(site.external)
        if isinstance(eo, NoOp):
            return None
        t0 = time.perf_counter_ns()
        try:
            msg = site.generate(eo)
        except BoundsError as exc:
            if not scripted:
                raise
            raise ScenarioError(f"script entry {_entry_to_text(ScriptEntry(tick, site_id, eo))!r}: {exc}") from exc
        self.local_ns.append(time.perf_counter_ns() - t0)
        self.generated.append(ScriptEntry(tick, site_id, eo))
        self._track_local(site_id, eo, msg)
        return msg

    def _track_local(self, site_id: SiteId, eo: ExternalOp, msg: WireMessage) -> None:
        key = (msg.origin, msg.seq)
        tags = self.tags[site_id]
        if isinstance(eo, Insert):
            self.insert_tags.add(key)
            tags.insert(eo.position, key)
        else:
            self.delete_targets[key] = tags.pop(eo.position)

    # -- delivery -----------------------------------------------------------

    def _deliver(self, site_id: SiteId, msg: WireMessage, tick: int) -> Optional[ExternalOp]:
        t0 = time.perf_counter_ns()
        eo = self.sites[site_id].deliver(msg)
        self.remote_ns.append(time.perf_counter_ns() - t0)
        if eo is None:
            return eo
        key = (msg.origin, msg.seq)
        tags = self.tags[site_id]
        if isinstance(eo, Insert):
            tags.insert(eo.position, key)
        elif isinstance(eo, Delete):
            removed = tags.pop(eo.position)
            expected = self.delete_targets.get(key)
            if removed != expected:
                self.intention.deletions_ok = False
                self.intention.violations.append(
                    f"site {site_id}: delete {key} removed instance {removed}, targeted {expected}"
                )
        return eo

    # -- post-run checks ----------------------------------------------------

    def finish(self) -> RunReport:
        trace = self.sim.run()
        quiescent = self.sim.quiescent()

        gc_total = 0
        if self.engine_name == "ot":
            stability = {i: s.engine.clock for i, s in self.sites.items()}
            for i, site in self.sites.items():
                collected = site.engine.gc(stability)
                gc_total += collected
                self.sim.log_gc(i, collected)

        finals = {i: s.external for i, s in self.sites.items()}
        dumps = {}
        if self.engine_name == "woot":
            dumps = {i: s.engine.istate.dump() for i, s in self.sites.items()}
        converged = len(set(finals.values())) <= 1 and len(set(dumps.values())) <= 1
        self._check_intention()
        if converged:
            detail = "all replicas identical"
        else:
            detail = "replica mismatch: " + "; ".join(f"site {i}={t!r}" for i, t in sorted(finals.items()))
            if self.ablation or not self.intention.ok:
                detail += " -- replicas are neither convergent nor intention preserving"
        bundle = metrics_mod.collect(
            engine=self.engine_name,
            engines={i: s.engine for i, s in self.sites.items()},
            server=self.server,
            local_ns=self.local_ns,
            remote_ns=self.remote_ns,
            gc_total=gc_total,
        )
        self._check_woot_accounting()
        return RunReport(
            engine=self.engine_name,
            ablation=self.ablation,
            seed=self.scenario.seed,
            initial=self.scenario.initial,
            sites=self.scenario.sites,
            final_states=finals,
            is_dumps=dumps,
            converged=converged,
            convergence_detail=detail,
            intention=self.intention,
            quiescent=quiescent,
            gc_total=gc_total,
            metrics=bundle,
            trace=trace,
            script=tuple(self.generated),
        )

    def _check_intention(self) -> None:
        if self.ablation:
            return  # external states are deliberately left stale
        expected = (self.init_tags | self.insert_tags) - set(self.delete_targets.values())
        # proxy (c): each site's own inserts, ranked by their place in its own list
        rank = {tag: k for s, tags in self.tags.items() for k, tag in enumerate(tags) if tag[0] == s}
        for i, tags in self.tags.items():
            if set(tags) != expected:
                self.intention.survivors_ok = False
                missing = expected - set(tags)
                extra = set(tags) - expected
                self.intention.violations.append(f"site {i}: missing {missing}, extra {extra}")
            last: Dict[SiteId, tuple] = {}  # origin -> its last ranked tag seen here
            for tag in filter(rank.__contains__, tags):
                prev = last.get(tag[0])
                if prev is not None and rank[tag] < rank[prev]:
                    self.intention.order_ok = False
                    self.intention.violations.append(f"site {i}: instances {tag} and {prev} in reversed order")
                last[tag[0]] = tag

    def _check_woot_accounting(self) -> None:
        if self.engine_name != "woot" or self.ablation:
            return
        expected_total = len(self.scenario.initial) + len(self.insert_tags)
        tombstoned = len(set(self.delete_targets.values()))  # distinct instances deleted
        for i, site in self.sites.items():
            seq = site.engine.istate
            if seq.total_count() != expected_total:
                raise AssertionError(f"site {i}: object count {seq.total_count()} != initial+inserts {expected_total}")
            if seq.visible_count() != expected_total - tombstoned:
                raise AssertionError(f"site {i}: visible count {seq.visible_count()} != {expected_total} - {tombstoned}")
            # the recorded visible series comes from the running count
            if seq.n_visible != seq.visible_count():
                raise AssertionError(f"site {i}: running visible count {seq.n_visible} != {seq.visible_count()}")
            if len(seq.by_id) != len(seq.objects):
                raise AssertionError(f"site {i}: id index holds {len(seq.by_id)} of {len(seq.objects)} objects")
            # `shown` is the only record of visibility, slot for slot with `objects`
            if len(seq.shown) != len(seq.objects):
                raise AssertionError(f"site {i}: shown list holds {len(seq.shown)} slots for {len(seq.objects)} objects")
            if any(ch and ch != o.character for o, ch in zip(seq.objects, seq.shown)):
                raise AssertionError(f"site {i}: shown list disagrees with the objects' characters")
            if seq.shown[0] or seq.shown[-1]:
                raise AssertionError(f"site {i}: a sentinel is shown")
            totals = site.engine.metrics.total_counts
            invisible = [t - v for t, v in zip(totals, site.engine.metrics.visible_counts)]
            if any(b < a for a, b in zip(invisible, invisible[1:])):
                raise AssertionError(f"site {i}: tombstone count decreased")
            if any(b < a for a, b in zip(totals, totals[1:])):
                raise AssertionError(f"site {i}: object count decreased")


def run_scenario(scenario: Scenario, engine: str, ablation: bool = False) -> RunReport:
    """Execute a scenario on one engine and return the checked report."""
    return _Run(scenario, engine, ablation).finish()


# ---------------------------------------------------------------------------
# fuzzing


def _random_scenario(rng: random.Random, seed: int, mode: str, max_ops: int = 200) -> Scenario:
    sites = rng.randint(2, 5)
    return Scenario(
        initial="".join(rng.choice("abcdef") for _ in range(rng.randint(0, 12))),
        sites=sites,
        mode=mode,
        latency=UniformLatency(1, rng.randint(2, 10)),
        seed=seed,
        fuzz=FuzzSpec(n_ops=rng.randint(10, max_ops), insert_ratio=rng.uniform(0.5, 0.85)),
    )


def _failure_reason(report: RunReport) -> Optional[str]:
    if not report.quiescent:
        return "messages left undelivered at quiescence"
    if not report.converged:
        return report.convergence_detail
    if not report.intention.ok:
        return "; ".join(report.intention.violations[:3])
    return None


def shrink_script(scenario: Scenario, script: Tuple[ScriptEntry, ...], engine: str, reason_fn=_failure_reason) -> Tuple[ScriptEntry, ...]:
    """Greedy one-op-at-a-time reduction keeping the failure alive."""
    current = list(script)
    changed = True
    while changed:
        changed = False
        for i in range(len(current)):
            candidate = current[:i] + current[i + 1 :]
            trial = replace(scenario, script=tuple(candidate), fuzz=None)
            try:
                rep = run_scenario(trial, engine)
            except Exception:
                continue  # removal broke a position precondition; keep the op
            if reason_fn(rep) is not None:
                current = candidate
                changed = True
                break
    return tuple(current)


def fuzz(n_runs: int, base_seed: int = 0, engines: Tuple[str, ...] = ("ot", "woot"), max_ops: int = 200, shrink: bool = True) -> dict:
    """Seeded random sessions; every run must pass every check on every engine."""
    failures = []
    for k in range(n_runs):
        seed = base_seed + k
        for engine in engines:
            mode = "sequencer" if engine == "ot" else "causal"
            scenario = _random_scenario(random.Random(f"scn-{seed}"), seed, mode, max_ops)
            try:
                report = run_scenario(scenario, engine)
                reason = _failure_reason(report)
            except Exception as exc:  # engine invariant violations surface here
                report, reason = None, f"exception: {exc!r}"
            if reason is not None:
                artifact = {"seed": seed, "engine": engine, "reason": reason}
                if report is not None and shrink:
                    shrunk = shrink_script(scenario, report.script, engine)
                    artifact["script"] = [_entry_to_text(e) for e in shrunk]
                failures.append(artifact)
    return {"runs": n_runs * len(engines), "failures": failures, "ok": not failures}


def cross_engine_compare(scenario: Scenario) -> dict:
    """Run both engines on one scenario and compare final texts.

    Concurrent insert-insert position ties are resolved by engine-specific
    policies, so tied runs are reported as excluded rather than compared.
    """
    ot_mode = scenario.mode if scenario.sites <= 2 else "sequencer"
    ot_rep = run_scenario(replace(scenario, mode=ot_mode), "ot")
    woot_rep = run_scenario(replace(scenario, mode="causal"), "woot")
    tie = ot_rep.metrics.insert_tie_seen
    result = {
        "ot": sorted(ot_rep.final_states.values())[0] if ot_rep.final_states else "",
        "woot": sorted(woot_rep.final_states.values())[0] if woot_rep.final_states else "",
        "both_converged": ot_rep.converged and woot_rep.converged,
        "tie": tie,
    }
    result["equal"] = None if tie else result["ot"] == result["woot"]
    return result
