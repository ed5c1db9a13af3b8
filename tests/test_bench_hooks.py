"""The benchmark's hooks (perfbench/tracing.py) patch library names where the
library looks them up, read through `vars(owner)[attr]`. A refactor that
inherits one of those methods or drops one of those imports breaks the
benchmark; this runs fig1 on all three engine set-ups under every hook and
checks that the hooks saw them and left the library as they found it.

The benchmark also builds sites through the public constructors in a fresh
interpreter (perfbench/setup_probe.py) and reads the run reports' cost
fields (`measure.Exact`); both are run here on tiny inputs, as
perfbench/selftest.py runs them at length."""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import coedit.harness
import coedit.netsim
import coedit.ot
from coedit.harness import Scenario, ScriptEntry, fig1_scenario, run_scenario
from coedit.model import Insert
from coedit.netsim import ACK_EVERY, Simulator, UniformLatency
from coedit.ot import OtSite, SequencerClient, SequencerServer
from coedit.woot import ObjectSequence, WootSite

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import measure  # noqa: E402
from tracing import OBJECT_SEQUENCE_METHODS, EventClock, Probe, Tracer, installed  # noqa: E402

HOOKED = (
    [(cls, attr) for cls in (OtSite, SequencerClient, WootSite) for attr in ("local", "remote")]
    + [(SequencerServer, "process")]
    + [(coedit.harness, name) for name in ("OtSite", "SequencerClient", "SequencerServer", "Simulator")]
    + [(coedit.ot, name) for name in ("transform", "happened_before", "apply_external")]
    + [(coedit.netsim, name) for name in ("encode_message", "decode_message", "causally_ready")]
    + [(Simulator, name) for name in ("_handle_generation", "_handle_arrival")]
    + [(ObjectSequence, name) for name in OBJECT_SEQUENCE_METHODS]
)


def test_hooks_observe_every_engine_and_undo():
    before = {(owner, attr): vars(owner)[attr] for owner, attr in HOOKED}
    probe, tracer = Probe(), Tracer()
    fig1 = fig1_scenario()
    with installed(probe, EventClock(), tracer):
        reports = [
            run_scenario(fig1, "ot"),
            run_scenario(replace(fig1, mode="sequencer"), "ot"),
            run_scenario(fig1, "woot"),
        ]
    assert all(r.ok for r in reports)
    assert [type(e) for e in probe.engines] == [OtSite, OtSite, SequencerClient, SequencerClient]
    assert len(probe.servers) == 1
    probed = probe.take()
    assert probed["bridge_len_max"] == 1 and probed["buffer_len_max"] == 2
    spans, _ = tracer.totals()
    assert {
        "ot.site_local", "ot.site_remote", "ot.client_local", "ot.client_remote",
        "ot.server_process", "woot.local", "woot.remote",
    } <= set(spans)
    assert spans["framework.decode"]["n"] == spans["framework.encode"]["n"] > 0
    # fig1's WOOT run inserts, deletes and integrates both remotely, so every
    # traced ObjectSequence method is on its call path except `nth_visible_index`,
    # which the library never calls (`pos_to_id` uses `_nth`). Nor does `fold`
    # call `transform` (it rebases each pair with `xform`), so that the OT runs
    # folded something is read from their reports' `transform_total`, as the
    # exact block below reads it. Both names stay hooked, so their install and
    # undo are still checked
    assert all(r.metrics.transform_total > 0 for r in reports[:2])
    for counter in ("model.apply_external",
                    *(f"woot.{name}" for name in OBJECT_SEQUENCE_METHODS if name != "nth_visible_index")):
        assert tracer.counters[counter][0] > 0, counter
    assert {(owner, attr): vars(owner)[attr] for owner, attr in HOOKED} == before


def test_setup_probe_builds_every_engine():
    spec = {
        "src": str(ROOT / "src"),
        "sessions": [
            {"engine": "woot", "mode": "causal", "sites": 2, "doc": "abe"},
            {"engine": "ot", "mode": "sequencer", "sites": 3, "doc": "abe"},
            {"engine": "ot", "mode": "causal", "sites": 2, "doc": "abe"},
        ],
    }
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "setup_probe.py")], input=json.dumps(spec),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) > 0


def test_exact_block_reads_every_engine_report():
    fig1 = fig1_scenario()
    probe, tally, exact = Probe(), measure.Tally(), measure.Exact()
    with installed(probe):
        measure.run_round([(fig1, "ot"), (replace(fig1, mode="sequencer"), "ot"), (fig1, "woot")], probe, tally, exact)
    assert tally.failures == []
    block = exact.block()
    assert (block["sessions"], block["ops"]) == (3, 6)
    assert (block["C"], block["C_t"]) == (3, 4)  # the WOOT session's "ace" and its tombstoned 'b'
    assert block["woot_engine_calls"] == 4 and block["search_steps_total"] > 0
    assert block["transform_total"] > 0 and block["ot.bridge_len_max"] == 1 and block["ot.buffer_len_max"] == 2
    assert block["framework.bytes_per_op"] > 0 and len(block["trace_digests"]) == 3


def test_report_wire_bytes_match_the_probe():
    """The Simulator adds every envelope it encodes to the run's
    `wire_bytes`, which then equals what the Probe counts through
    `encode_message`: on fig1 in both OT modes and on WOOT, and on a
    sequencer session with read-only sites, whose acks are counted too."""
    fig1 = fig1_scenario()
    readers = Scenario("abcde", 4, "sequencer", UniformLatency(1, 10), 4,
                       script=tuple(ScriptEntry(1 + k // 3, 0, Insert(k % 5, "x")) for k in range(120)))
    counted = []
    for scenario, engine in ((fig1, "ot"), (replace(fig1, mode="sequencer"), "ot"), (fig1, "woot"), (readers, "ot")):
        probe = Probe()
        with installed(probe):
            report = run_scenario(scenario, engine)
        assert report.ok and report.metrics.wire_bytes == probe.take()["wire_bytes"] > 0
        counted.append(report.metrics.wire_messages)
    assert counted[:3] == [2, 4, 2] and counted[3] >= 2 * 120 + 3 * (120 // ACK_EVERY)  # ops, stream messages, readers' acks
