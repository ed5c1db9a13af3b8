"""The benchmark's hooks (perfbench/tracing.py) patch library names where the
library looks them up, read through `vars(owner)[attr]`. A refactor that
inherits one of those methods or drops one of those imports breaks the
benchmark; this runs fig1 on all three engine set-ups under every hook and
checks that the hooks saw them and left the library as they found it."""

import sys
from dataclasses import replace
from pathlib import Path

import coedit.harness
import coedit.netsim
import coedit.ot
from coedit.harness import fig1_scenario, run_scenario
from coedit.netsim import Simulator
from coedit.ot import OtSite, SequencerClient, SequencerServer
from coedit.woot import ObjectSequence, WootSite

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
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
    # traced ObjectSequence method must be on its call path
    for counter in ("ot.transform", "model.happened_before", "model.apply_external",
                    *(f"woot.{name}" for name in OBJECT_SEQUENCE_METHODS)):
        assert tracer.counters[counter][0] > 0, counter
    assert {(owner, attr): vars(owner)[attr] for owner, attr in HOOKED} == before
