"""Scenario execution and correctness checking.

A Scenario (scripted or fuzzed) runs to quiescence on any engine named in
`ENGINES` through the network simulator. The run is checked for:

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
    NUL,
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
from .metrics import MetricsBundle


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
        if self.mode not in MODES:
            raise ScenarioError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.fuzz is not None and self.fuzz.window is not None and self.fuzz.window < 1:
            raise ScenarioError(f"a fuzz window needs at least 1 op, got {self.fuzz.window}")
        if self.fuzz is not None and not self.fuzz.alphabet:
            raise ScenarioError("a fuzz alphabet needs at least 1 character")
        if NUL in self.initial or (self.fuzz is not None and NUL in self.fuzz.alphabet):
            raise ScenarioError("a document character is never NUL: not in the initial document, nor in the fuzz alphabet")


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
    metrics: MetricsBundle
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


def _ot_engines(scenario: Scenario, ablation: bool) -> tuple:
    if ablation:
        raise ScenarioError("the conversion-skip ablation only applies to the woot engine")
    ids = list(range(scenario.sites))
    if scenario.mode == "sequencer":
        return {i: SequencerClient(site=i, state=scenario.initial) for i in ids}, SequencerServer(client_ids=ids, state=scenario.initial)
    if scenario.sites > 2:
        raise ScenarioError("symmetric ot supports 2 sites; use sequencer mode for more")
    return {i: OtSite(site=i, state=scenario.initial) for i in ids}, None


def _woot_engines(scenario: Scenario, ablation: bool) -> tuple:
    if scenario.mode == "sequencer":
        raise ScenarioError("sequencer mode is only wired to the ot engine")
    return {i: (SkipConversionSite if ablation else WootSite).create(i, scenario.initial) for i in range(scenario.sites)}, None


# name -> (the mode that works at any site count, builder). A builder maps
# (scenario, ablation) to (engines by site id, sequencer server or None), or
# raises ScenarioError. perfbench/tracing.py patches the classes it reads here.
ENGINES = {"ot": ("sequencer", _ot_engines), "woot": ("causal", _woot_engines)}


class _Run:
    """Mutable state of one scenario execution."""

    def __init__(self, scenario: Scenario, engine: str, ablation: bool):
        if engine not in ENGINES:
            raise ScenarioError(f"unknown engine {engine!r}")
        engines, self.server = ENGINES[engine][1](scenario, ablation)
        self.scenario = scenario
        self.engine_name = engine
        self.ablation = ablation
        ids = list(engines)
        self.sites = {i: Site(id=i, engine=e, external=scenario.initial) for i, e in engines.items()}

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
        self.fuzz_rng = random.Random(f"ops-{scenario.seed}")
        self.sim = Simulator(
            SimConfig(scenario.mode, scenario.latency, scenario.seed),
            ids,
            self._generate,
            self._deliver,
            lambda s: self.sites[s].engine.clock,
            sequencer_server=self.server,
        )
        spec = scenario.fuzz
        if scenario.script is not None:
            for e in scenario.script:
                if not 0 <= e.site < scenario.sites:
                    raise ScenarioError(f"script references unknown site {e.site}")
                self.script_queue.setdefault((e.tick, e.site), []).append(e.op)
                self.sim.schedule_generation(e.tick, e.site)
        elif spec.window is None:
            span = max(2, spec.n_ops)
            for _ in range(spec.n_ops):
                self.sim.schedule_generation(self.fuzz_rng.randint(1, span), self.fuzz_rng.randrange(scenario.sites))
        else:  # rounds of `window` ops, `gap` ticks apart
            for k in range(spec.n_ops):
                self.sim.schedule_generation(1 + k // spec.window * spec.gap, self.fuzz_rng.randrange(scenario.sites))

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

        stability = {i: s.engine.clock for i, s in self.sites.items()}
        created = len(self.scenario.initial) + len(self.insert_tags)
        deleted = len(set(self.delete_targets.values()))  # distinct instances deleted
        bundle = MetricsBundle(engine=self.engine_name, local_ns=self.local_ns, remote_ns=self.remote_ns)
        dumps = {}
        for i, site in self.sites.items():
            collected, dump = site.engine.quiesce(stability, created, deleted)
            if collected is not None:
                bundle.gc_total += collected
                self.sim.log_gc(i, collected)
            if dump is not None:
                dumps[i] = dump
            site.engine.fold_metrics(bundle)
        if self.server is not None:
            self.server.fold_metrics(bundle)

        finals = {i: s.external for i, s in self.sites.items()}
        converged = len(set(finals.values())) <= 1 and len(set(dumps.values())) <= 1
        self._check_intention()
        if converged:
            detail = "all replicas identical"
        else:
            detail = "replica mismatch: " + "; ".join(f"site {i}={t!r}" for i, t in sorted(finals.items()))
            if self.ablation or not self.intention.ok:
                detail += " -- replicas are neither convergent nor intention preserving"
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
            gc_total=bundle.gc_total,
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


def fuzz(n_runs: int, base_seed: int = 0, engines: Optional[Tuple[str, ...]] = None, max_ops: int = 200) -> dict:
    """Seeded random sessions; every run must pass every check on every engine (default: all)."""
    engines = tuple(ENGINES) if engines is None else engines
    failures = []
    for k in range(n_runs):
        seed = base_seed + k
        for engine in engines:
            mode = ENGINES[engine][0]
            scenario = _random_scenario(random.Random(f"scn-{seed}"), seed, mode, max_ops)
            try:
                report = run_scenario(scenario, engine)
                reason = _failure_reason(report)
            except Exception as exc:  # engine invariant violations surface here
                report, reason = None, f"exception: {exc!r}"
            if reason is not None:
                artifact = {"seed": seed, "engine": engine, "reason": reason}
                if report is not None:
                    shrunk = shrink_script(scenario, report.script, engine)
                    artifact["script"] = [_entry_to_text(e) for e in shrunk]
                failures.append(artifact)
    return {"runs": n_runs * len(engines), "failures": failures, "ok": not failures}


def cross_engine_compare(scenario: Scenario) -> dict:
    """Run every engine on one scenario (in its general mode if it rejects
    the scenario's) and compare final texts, keyed by engine name.

    Concurrent insert-insert position ties are resolved by engine-specific
    policies, so tied runs are reported as excluded rather than compared.
    """
    reports = {}
    for engine, (general, _) in ENGINES.items():
        try:
            run = _Run(scenario, engine, ablation=False)
        except ScenarioError:
            run = _Run(replace(scenario, mode=general), engine, ablation=False)
        reports[engine] = run.finish()
    texts = {engine: min(r.final_states.values()) for engine, r in reports.items()}
    tie = any(r.metrics.insert_tie_seen for r in reports.values())
    both_converged = all(r.converged for r in reports.values())
    return dict(texts, both_converged=both_converged, tie=tie, equal=None if tie else len(set(texts.values())) == 1)
