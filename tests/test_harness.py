"""Scenario files, scripted/fuzzed runs, convergence + intention checking,
ablation, shrinking, cross-engine comparison."""

import ast
import random
import re
from pathlib import Path

import pytest

from coedit import cli, harness, woot
from coedit.model import BoundsError, Delete, Insert
from coedit.netsim import FixedLatency, UniformLatency
from coedit.woot import TOMB, Block, WootSite
from coedit.harness import (
    FuzzSpec,
    Scenario,
    ScenarioError,
    ScriptEntry,
    cross_engine_compare,
    fig1_scenario,
    fuzz,
    run_scenario,
    scenario_from_text,
    scenario_to_text,
    shrink_script,
    _failure_reason,
    _Run,
)


class TestScenarioFiles:
    def test_roundtrip(self):
        s = Scenario("abe", 2, "causal", UniformLatency(1, 5), 9, script=(
            ScriptEntry(1, 0, Delete(1)),
            ScriptEntry(3, 1, Insert(0, "z")),
        ))
        assert scenario_from_text(scenario_to_text(s)) == s

    @pytest.mark.parametrize("char", [" ", "\n", "\t", "\\", "\U0001F600"], ids=["space", "newline", "tab", "backslash", "non-bmp"])
    def test_roundtrip_escapes_text(self, char):
        s = Scenario(f"{char}a{char}b{char}", 2, "causal", FixedLatency(1), 0, script=(
            ScriptEntry(1, 0, Insert(1, char)),
            ScriptEntry(2, 1, Insert(0, "z")),
        ))
        text = scenario_to_text(s)
        assert len(text.splitlines()) == 7  # 5 headers, 2 ops
        assert scenario_from_text(text) == s
        assert run_scenario(scenario_from_text(text), "ot").ok

    def test_bad_escape_rejected(self):
        for doc in ("a\\", "a\\u00", "a\\x2"):
            with pytest.raises(ScenarioError):
                scenario_from_text(f"sites 2\ndoc {doc}\n")

    def test_text_form(self):
        text = scenario_to_text(fig1_scenario())
        assert "sites 2" in text and "doc abe" in text
        assert "@1 s0 D 1" in text and "@1 s1 I 2 c" in text

    def test_comments_and_blanks_ignored(self):
        s = scenario_from_text("# demo\nsites 2\n\ndoc ab\n@1 s0 D 0\n")
        assert s.sites == 2 and s.initial == "ab" and len(s.script) == 1

    def test_bad_lines_rejected(self):
        with pytest.raises(ScenarioError):
            scenario_from_text("sites 2\nwhat 3\n")
        with pytest.raises(ScenarioError):
            scenario_from_text("doc ab\n")  # missing sites

    @pytest.mark.parametrize("line", [
        "latency fixed", "latency", "latency uniform 1", "latency uniform 5 1", "sites x", "seed", "mode bogus",
        "doc a b", "@x s0 D 1", "@1 s0 I 1", "@1 sx D 1",
    ])
    def test_malformed_line_names_itself(self, line):
        with pytest.raises(ScenarioError, match=re.escape(f"line 1 {line!r}")):
            scenario_from_text(f"{line}\nsites 2\n")

    def test_exactly_one_of_script_or_fuzz(self):
        with pytest.raises(ScenarioError):
            Scenario("ab", 2)
        with pytest.raises(ScenarioError):
            Scenario("ab", 2, script=(), fuzz=FuzzSpec())

    @pytest.mark.parametrize("window", [0, -1])
    def test_empty_fuzz_window_rejected(self, window):
        # a window below 1 would schedule no op per round, forever
        with pytest.raises(ScenarioError, match="fuzz window"):
            Scenario("ab", 2, fuzz=FuzzSpec(n_ops=4, window=window))

    def test_empty_fuzz_alphabet_rejected(self):
        # an insert would draw from nothing
        with pytest.raises(ScenarioError, match="fuzz alphabet"):
            Scenario("ab", 2, fuzz=FuzzSpec(n_ops=5, alphabet=""))

    @pytest.mark.parametrize("initial, alphabet", [("a\x00b", "ab"), ("ab", "a\x00")], ids=["initial", "alphabet"])
    def test_nul_document_character_rejected(self, initial, alphabet):
        with pytest.raises(ScenarioError, match="never NUL"):
            Scenario(initial, 2, fuzz=FuzzSpec(n_ops=4, alphabet=alphabet))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ScenarioError, match="unknown mode 'bogus'"):
            Scenario("ab", 2, mode="bogus", fuzz=FuzzSpec(n_ops=4))


class TestRunScenario:
    def test_fig1_ot(self):
        report = run_scenario(fig1_scenario(), "ot")
        assert report.final_states == {0: "ace", 1: "ace"}
        assert report.converged and report.intention.ok and report.quiescent

    def test_fig1_woot(self):
        report = run_scenario(fig1_scenario(), "woot")
        assert set(report.final_states.values()) == {"ace"}
        assert len(set(report.is_dumps.values())) == 1
        assert "b|-1.2|prev=-1.1|next=-1.3|iv" in report.is_dumps[0]

    def test_fig1_ablation_diverges(self):
        report = run_scenario(fig1_scenario(), "woot", ablation=True)
        assert report.final_states == {0: "ae", 1: "abce"}
        assert not report.converged
        assert "replicas are neither convergent nor intention preserving" in report.convergence_detail

    def test_ablation_only_for_woot(self):
        with pytest.raises(ScenarioError):
            run_scenario(fig1_scenario(), "ot", ablation=True)

    def test_sequencer_requires_ot(self):
        s = Scenario("ab", 2, "sequencer", FixedLatency(1), 0, fuzz=FuzzSpec(n_ops=4))
        with pytest.raises(ScenarioError):
            run_scenario(s, "woot")

    def test_out_of_range_fuzz_op_is_a_fault(self, monkeypatch):
        # an out-of-range scripted op is the scenario's fault, a generated one the harness's
        monkeypatch.setattr(_Run, "_pick_fuzz_op", lambda self, text: Delete(len(text)))
        s = Scenario("ab", 2, "causal", FixedLatency(1), 0, fuzz=FuzzSpec(n_ops=4))
        with pytest.raises(BoundsError):
            run_scenario(s, "woot")

    @pytest.mark.parametrize("ablation", [False, True])
    def test_drifted_visible_count_is_a_fault(self, monkeypatch, ablation):
        # the visible series that the tombstone check reads is the running
        # count; a drift that keeps that series monotone must still fail, on
        # the ablated engine too, which integrates its sequence normally
        local = WootSite.local

        def drifting(self, eo):
            idop = local(self, eo)
            self.istate.n_visible -= 1
            return idop

        monkeypatch.setattr(WootSite, "local", drifting)
        with pytest.raises(AssertionError, match="running visible count"):
            run_scenario(fig1_scenario(), "woot", ablation=ablation)

    def test_stray_shown_slot_is_a_fault(self, monkeypatch):
        # a trailing TOMB leaves value(), the visible count and the sentinel
        # check as they were, so only the slot-for-slot accounting of `shown`
        # can catch it
        local = WootSite.local

        def straying(self, eo):
            idop = local(self, eo)
            if self.site == 0 and idop.seq == 1:
                self.istate.blocks[-1].shown += TOMB
            return idop

        monkeypatch.setattr(WootSite, "local", straying)
        with pytest.raises(AssertionError, match="shown string holds"):
            run_scenario(fig1_scenario(), "woot")

    @pytest.mark.parametrize("ablation", [False, True])
    @pytest.mark.parametrize("drift, message", [
        ("visible", r"block 2 is numbered 2 and keeps visible count 1, expected 0"),
        ("length", r"block lengths \[2, 3, 2\], expected \[2, 3, 1\]"),
        ("block of", r"the block index does not place every object of block 0 in it"),
        ("one block", r"block 0 is numbered 0 and keeps visible count 3, expected None"),
    ])
    def test_drifted_block_accounting_is_a_fault(self, monkeypatch, ablation, drift, message):
        # Two slots per block lay fig1's "abe" out as [@s a] [b e] [@e];
        # eight keep it one block. Each drift leaves fig1's conversions, its
        # text and its running counts as they were; only the block accounting
        # at quiescence can catch it. A one-block sequence keeps no counts.
        monkeypatch.setattr(woot, "BLOCK", 8 if drift == "one block" else 2)
        local = WootSite.local

        def drifting(self, eo):
            idop = local(self, eo)
            seq = self.istate
            if drift == "visible":
                seq.blocks[-1].visible += 1
            elif drift == "length":
                seq.lens[-1] += 1
            elif drift == "block of":
                seq.blocks[0].objects[1].block = Block([], [], 0)
            else:
                seq.blocks[0].visible = 3
            return idop

        monkeypatch.setattr(WootSite, "local", drifting)
        with pytest.raises(AssertionError, match=message):
            run_scenario(fig1_scenario(), "woot", ablation=ablation)

    def test_symmetric_ot_limited_to_two_sites(self):
        s = Scenario("ab", 3, "causal", FixedLatency(1), 0, fuzz=FuzzSpec(n_ops=4))
        with pytest.raises(ScenarioError):
            run_scenario(s, "ot")

    def test_sequencer_whitespace_inserts(self):
        s = Scenario("ab", 3, "sequencer", FixedLatency(1), 0, script=(
            ScriptEntry(1, 0, Insert(1, " ")),
            ScriptEntry(1, 1, Insert(2, "\n")),
        ))
        report = run_scenario(s, "ot")
        assert report.ok
        assert set(report.final_states.values()) == {"a b\n"}

    def test_ot_gc_drains_buffers(self):
        report = run_scenario(fig1_scenario(), "ot")
        assert report.gc_total == 4  # 2 ops buffered at each of 2 sites
        assert any("kind=gc" in l for l in report.trace)

    def test_report_serializes(self):
        report = run_scenario(fig1_scenario(), "woot")
        d = report.to_dict()
        assert d["converged"] is True
        assert d["final_states"] == {"0": "ace", "1": "ace"}
        assert len(d["trace_digest"]) == 64


class TestIntentionProxies:
    def test_fig1_pass(self):
        report = run_scenario(fig1_scenario(), "ot")
        v = report.intention
        assert v.survivors_ok and v.deletions_ok and v.order_ok

    def test_wrong_victim_detected(self):
        """Proxy (b): a delete that removes an untargeted instance must fail.
        Build it by breaking the transformation: concurrent inserts at one
        position plus a delete give different victims if ops are replayed
        without transformation; here we fake it by corrupting the report
        path via a deliberately inconsistent script replay."""
        from coedit import harness

        scenario = fig1_scenario()
        run = harness._Run(scenario, "ot", ablation=False)
        # claim the delete targeted the 'e' instance instead of 'b'
        trace = run.sim.run()
        assert run.delete_targets == {(0, 1): ("init", 1)}
        run.delete_targets[(0, 1)] = ("init", 2)
        run._check_intention()
        assert not run.intention.survivors_ok

    def test_order_violation_detected(self):
        """Proxy (c): sequential same-site inserts must keep their order."""
        from coedit import harness

        scenario = Scenario("", 2, "causal", FixedLatency(1), 0, script=(
            ScriptEntry(1, 0, Insert(0, "x")),
            ScriptEntry(2, 0, Insert(1, "y")),
        ))
        run = harness._Run(scenario, "ot", ablation=False)
        run.sim.run()
        assert run.tags[1] == [(0, 1), (0, 2)]
        # swap the two instances at the receiving site: the checker must flag it
        run.tags[1].reverse()
        run._check_intention()
        assert run.intention.survivors_ok and not run.intention.order_ok
        assert run.intention.violations == ["site 1: instances (0, 1) and (0, 2) in reversed order"]

    @pytest.mark.parametrize("site, origins, flagged", [
        (2, (0, 0), True),
        (0, (0, 0), True),
        (2, (1, 0), False),
    ], ids=["same-origin-at-reader", "same-origin-at-origin", "different-origins"])
    def test_sabotaged_order(self, site, origins, flagged):
        """Swap two adjacent instances in one site's final tag list of a
        3-site sequencer run; only a swap of one origin's inserts is flagged."""
        from coedit import harness

        typed = [ScriptEntry(1 + k, 0, Insert(k, c)) for k, c in enumerate("xyz")]
        typed += [ScriptEntry(10 + k, 1, Insert(k, c)) for k, c in enumerate("pq")]
        run = harness._Run(Scenario("ab", 3, "sequencer", FixedLatency(1), 0, script=tuple(typed)), "ot", ablation=False)
        run.sim.run()
        assert {s.external for s in run.sites.values()} == {"pqxyzab"}
        tags = run.tags[site]
        k = next(k for k in range(len(tags) - 1) if (tags[k][0], tags[k + 1][0]) == origins)
        tags[k], tags[k + 1] = tags[k + 1], tags[k]
        run._check_intention()
        assert run.intention.survivors_ok and run.intention.deletions_ok
        assert run.intention.order_ok is not flagged


class TestFuzz:
    def test_small_suite_clean(self):
        result = fuzz(15, base_seed=100)
        assert result["runs"] == 30 and result["ok"], result["failures"][:2]

    def test_replay_reproduces_digest(self):
        scenario = Scenario("ab", 2, "sequencer", UniformLatency(1, 4), 5,
                            fuzz=FuzzSpec(n_ops=20))
        assert run_scenario(scenario, "ot").trace_digest == run_scenario(scenario, "ot").trace_digest

    def test_shrinker_keeps_failure_alive(self):
        """Shrinking against an artificial reason function is minimal."""
        scenario = Scenario("abe", 2, "causal", FixedLatency(1), 0, script=(
            ScriptEntry(1, 0, Insert(0, "x")),
            ScriptEntry(2, 0, Delete(0)),
            ScriptEntry(3, 1, Insert(3, "q")),
        ))

        def wants_q(report):
            return "q" if any("q" in s for s in report.final_states.values()) else None

        shrunk = shrink_script(scenario, scenario.script, "ot", reason_fn=wants_q)
        assert len(shrunk) == 1 and shrunk[0].op == Insert(3, "q")

    def test_failure_reason_none_on_clean_run(self):
        assert _failure_reason(run_scenario(fig1_scenario(), "ot")) is None


class TestCrossEngine:
    def test_fig1_engines_agree(self):
        result = cross_engine_compare(fig1_scenario())
        assert result["both_converged"]
        assert result["tie"] is False
        assert result["equal"] and result["ot"] == result["woot"] == "ace"

    def test_tie_scenarios_excluded(self):
        scenario = Scenario("ab", 2, "causal", FixedLatency(2), 0, script=(
            ScriptEntry(1, 0, Insert(1, "x")),
            ScriptEntry(1, 1, Insert(1, "y")),
        ))
        result = cross_engine_compare(scenario)
        assert result["tie"] is True and result["equal"] is None

    def test_tie_free_corpus_equality_rate(self, rng):
        agree = total = 0
        for seed in range(12):
            scenario = Scenario(
                "abcd", 2, "causal", UniformLatency(1, 4), seed,
                fuzz=FuzzSpec(n_ops=10, insert_ratio=0.6),
            )
            result = cross_engine_compare(scenario)
            assert result["both_converged"]
            if not result["tie"]:
                total += 1
                agree += result["equal"]
        assert total > 0 and agree == total


class TestEngineTable:
    def test_third_engine_is_one_table_entry(self, monkeypatch, capsys):
        monkeypatch.setitem(harness.ENGINES, "woot2", harness.ENGINES["woot"])
        report = run_scenario(fig1_scenario(), "woot2")
        assert report.ok and report.engine == "woot2" and report.is_dumps
        result = fuzz(3, engines=("woot2",))
        assert result["runs"] == 3 and result["ok"], result["failures"][:2]
        assert fuzz(1)["runs"] == 3  # the default engine list is read from the table
        compared = cross_engine_compare(fig1_scenario())
        assert compared["woot2"] == compared["woot"] == compared["ot"] == "ace" and compared["equal"]
        assert cli.main(["run", "--engine", "woot2", "--scenario", "fig1"]) == 0
        assert '"engine": "woot2"' in capsys.readouterr().out

    def test_unknown_engine_rejected(self):
        with pytest.raises(ScenarioError, match="unknown engine"):
            run_scenario(fig1_scenario(), "rga")

    @pytest.mark.parametrize("module", ["harness.py", "cli.py", "metrics.py"])
    def test_no_line_compares_an_engine_name(self, module):
        # engines are told apart by the ENGINES table, never by name
        path = Path(harness.__file__).with_name(module)
        names = {"ot", "woot"}

        def named(node):
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                return any(named(e) for e in node.elts)
            return isinstance(node, ast.Constant) and node.value in names

        found = [
            node.lineno
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Compare) and any(named(o) for o in [node.left, *node.comparators])
        ]
        assert not found, f"{module} compares an engine name on lines {found}"
