"""Hooks the benchmark installs around the library's public entry points.

Two kinds, both installed by patching a name where the library looks it up
and undone when the run ends; no library file changes.

Probe (every run): remembers the OT engines and the sequencer server each
session builds, and counts encoded wire bytes, so the exact-count block can
read `OtMetrics.buffer_length_samples` and `SequencerServer.bridges` from
their public attributes.

EventClock (untraced runs): times every event the Simulator handles, so a
session's host time splits into many small pieces.

Tracer (traced passes only):
  - spans (name, start, end, parent, op key) at op-level boundaries:
    run_scenario, Simulator.run, the generate/deliver callbacks handed to the
    Simulator, Site.generate/deliver, the engines' local/remote,
    SequencerServer.process and the wire codec;
  - aggregated calls + ns counters for hot leaf functions: transform,
    happened_before, apply_external, causally_ready and the ObjectSequence
    methods.
Spans stay in memory and are written out when the run ends. A span's self
time is its duration minus that of its direct child spans; counters are not
spans, so their time stays in the self time of the span they ran under.
"""

from __future__ import annotations

import gzip
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import coedit.framework
import coedit.harness
import coedit.model
import coedit.netsim
import coedit.ot
import coedit.woot
from coedit.framework import Site, message_meta
from coedit.netsim import Simulator
from coedit.ot import OtSite, SequencerClient, SequencerServer
from coedit.woot import ObjectSequence, WootSite

OBJECT_SEQUENCE_METHODS = (
    "index_of", "contains", "nth_visible_index", "visible_rank", "value", "visible_count",
    "total_count", "dump", "pos_to_id", "id_to_pos", "integrate_delete", "executable", "integrate_insert",
)


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr: str, value) -> None:
        old = vars(owner)[attr]
        self._undo.append((owner, attr, old))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


@contextmanager
def installed(*hooks):
    patches = Patches()
    try:
        for hook in hooks:
            hook.install(patches)
        yield
    finally:
        patches.undo()


class Probe:
    """Per-session engine handles and wire-byte count."""

    def __init__(self):
        self.engines = []
        self.servers = []
        self.wire_bytes = 0

    def install(self, patches: Patches) -> None:
        def recording(cls, sink):
            def make(*args, **kwargs):
                obj = cls(*args, **kwargs)
                sink.append(obj)
                return obj
            return make

        encode = coedit.netsim.encode_message

        def counted_encode(msg):
            data = encode(msg)
            self.wire_bytes += len(data)
            return data

        patches.set(coedit.harness, "OtSite", recording(OtSite, self.engines))
        patches.set(coedit.harness, "SequencerClient", recording(SequencerClient, self.engines))
        patches.set(coedit.harness, "SequencerServer", recording(SequencerServer, self.servers))
        patches.set(coedit.netsim, "encode_message", counted_encode)

    def take(self) -> dict:
        """The finished session's figures; forgets its engines."""
        out = {
            "buffer_len_max": max((max(e.metrics.buffer_length_samples, default=0) for e in self.engines), default=0),
            "bridge_len_max": max((len(b) for s in self.servers for b in s.bridges.values()), default=0),
            "wire_bytes": self.wire_bytes,
        }
        self.engines.clear()
        self.servers.clear()
        self.wire_bytes = 0
        return out


class EventClock:
    """Host time of every event the Simulator handles (an op's generation
    or a message's arrival, callbacks, codec and hold-back included), in
    the order handled. A session's events come in the same order in every
    run of it, so the same index names the same event."""

    def __init__(self):
        self.event_ns = array("q")

    def install(self, patches: Patches) -> None:
        def timed(fn):
            def wrapper(*args):
                t0 = perf_counter_ns()
                fn(*args)
                self.event_ns.append(perf_counter_ns() - t0)
            return wrapper

        patches.set(Simulator, "_handle_generation", timed(vars(Simulator)["_handle_generation"]))
        patches.set(Simulator, "_handle_arrival", timed(vars(Simulator)["_handle_arrival"]))

    def take(self) -> array:
        """The finished session's event times; starts a new list."""
        out, self.event_ns = self.event_ns, array("q")
        return out


def op_key(msg) -> int:
    """(origin, seq) of a wire message packed into one int; -1 for none."""
    if msg is None:
        return -1
    origin, seq, _ = message_meta(msg)
    return origin << 40 | seq


RESULT = "result"


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.key = array("q")
        self._stack = []
        self.counters = {}  # name -> [calls, ns]
        self.holdback_max = 0
        self.causal_deliveries = 0

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self.key.append(-1)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def close(self, i: int, key: int = -1) -> None:
        self.end[i] = perf_counter_ns()
        self.key[i] = key
        self._stack.pop()

    def span(self, name: str, fn, key=None):
        """Wrap `fn` in a span; the op key comes from positional argument
        `key`, from the result when `key` is RESULT, or is absent."""

        def wrapper(*args, **kwargs):
            i = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                msg = None if key is None else result if key == RESULT else args[key]
                self.close(i, op_key(msg))

        return wrapper

    def counter(self, name: str, fn):
        tally = self.counters.setdefault(name, [0, 0])

        def wrapper(*args, **kwargs):
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                tally[1] += perf_counter_ns() - t0
                tally[0] += 1

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, patches: Patches) -> None:
        def method_span(cls, attr, name, key):
            patches.set(cls, attr, self.span(name, vars(cls)[attr], key))

        method_span(Simulator, "run", "netsim.run", None)
        method_span(Site, "generate", "framework.site_generate", RESULT)
        method_span(Site, "deliver", "framework.site_deliver", 1)
        method_span(OtSite, "local", "ot.site_local", RESULT)
        method_span(OtSite, "remote", "ot.site_remote", 1)
        method_span(SequencerClient, "local", "ot.client_local", RESULT)
        method_span(SequencerClient, "remote", "ot.client_remote", 1)
        method_span(SequencerServer, "process", "ot.server_process", 2)
        method_span(WootSite, "local", "woot.local", RESULT)
        method_span(WootSite, "remote", "woot.remote", 1)
        for attr in OBJECT_SEQUENCE_METHODS:
            patches.set(ObjectSequence, attr, self.counter(f"woot.{attr}", vars(ObjectSequence)[attr]))

        patches.set(coedit.netsim, "encode_message", self.span("framework.encode", coedit.netsim.encode_message, 0))
        patches.set(coedit.netsim, "decode_message", self.span("framework.decode", coedit.netsim.decode_message, RESULT))
        patches.set(coedit.netsim, "causally_ready", self.counter("netsim.causally_ready", coedit.netsim.causally_ready))
        patches.set(coedit.ot, "transform", self.counter("ot.transform", coedit.ot.transform))
        happened_before = self.counter("model.happened_before", coedit.model.happened_before)
        apply_external = self.counter("model.apply_external", coedit.model.apply_external)
        for module in (coedit.ot, coedit.model):
            patches.set(module, "happened_before", happened_before)
        for module in (coedit.ot, coedit.woot, coedit.framework):
            patches.set(module, "apply_external", apply_external)
        patches.set(coedit.harness, "Simulator", self._simulator_factory(coedit.harness.Simulator))

    def _simulator_factory(self, make_simulator):
        """Build the Simulator as the harness would, with its callbacks wrapped."""

        def make(config, site_ids, generate_cb, deliver_cb, *args, **kwargs):
            sims = []

            def deliver(site, msg, tick):
                # At delivery the message has just left its hold-back queue,
                # so the queue plus this message is the depth it reached.
                sim = sims[0]
                depth = len(sim.pending[site]) + len(sim.seq_hold[site]) + 1
                if depth > self.holdback_max:
                    self.holdback_max = depth
                if config.mode == "causal":
                    self.causal_deliveries += 1
                return deliver_cb(site, msg, tick)

            sim = make_simulator(
                config,
                site_ids,
                self.span("harness.generate_cb", generate_cb, RESULT),
                self.span("harness.deliver_cb", deliver, 1),
                *args,
                **kwargs,
            )
            sims.append(sim)
            return sim

        return make

    # -- analysis -----------------------------------------------------------

    def totals(self) -> tuple:
        """({name: {"n", "ns", "self_ns"}} over all spans, the host ns that
        `run_scenario` spans spent after their `Simulator.run` returned)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"n": 0, "ns": 0, "self_ns": 0} for name in self.names}
        check_ns = 0
        run_id = self._ids.get("netsim.run")
        for i in range(n):
            row = out[self.names[self.name[i]]]
            row["n"] += 1
            row["ns"] += dur[i]
            row["self_ns"] += dur[i] - child[i]
            if self.name[i] == run_id and self.parent[i] >= 0:
                check_ns += self.end[self.parent[i]] - self.end[i]
        return out, check_ns

    def write(self, path) -> None:
        """All spans as gzipped TSV: id, name, start_ns, end_ns, parent id,
        op key ("origin:seq", or "-")."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\tkey\n")
            for i in range(len(self.start)):
                k = self.key[i]
                key = "-" if k < 0 else f"{k >> 40}:{k & ((1 << 40) - 1)}"
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\t{self.parent[i]}\t{key}\n")
