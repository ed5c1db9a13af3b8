"""Cost instrumentation, CSV/JSON output, bench checks, CLI surface."""

import json
import os
import struct
import subprocess
import sys
import time

import pytest

from coedit import metrics
from coedit.cli import main
from coedit.framework import encode_message
from coedit.harness import FuzzSpec, Scenario, ScenarioError, _Run, fig1_scenario, run_scenario
from coedit.metrics import CSV_COLUMNS, Workload, csv_row, measure_init, rows_to_csv
from coedit.model import Delete
from coedit.netsim import UniformLatency
from coedit.ot import OtSite, SequencerClient, SequencerServer
from coedit.woot import WootSite


class TestCollect:
    def test_fig1_ot_concurrency(self):
        report = run_scenario(fig1_scenario(), "ot")
        assert report.metrics.max_c == 1  # one concurrent buffered op per remote
        assert report.metrics.transform_total == 2

    def test_fig1_woot_counts(self):
        report = run_scenario(fig1_scenario(), "woot")
        assert report.metrics.final_visible == 3  # "ace"
        assert report.metrics.final_total == 4  # + tombstoned 'b'
        assert report.metrics.init_cost == 3

    def test_c_t_dominates_c(self, monkeypatch):
        # every replica's (C, C_t) after each of its ops, read as it samples them
        samples = []
        sample = WootSite._sample

        def recording(self, steps_before):
            sample(self, steps_before)
            samples.append((self.istate.n_visible, self.istate.total_count()))

        monkeypatch.setattr(WootSite, "_sample", recording)
        run_scenario(fig1_scenario(), "woot")
        assert len(samples) == 4  # 2 sites, each making one op and receiving the other
        for c, t in samples:
            assert t >= c

    def test_run_without_ops_reports_the_document(self):
        report = run_scenario(Scenario("abc", 2, fuzz=FuzzSpec(n_ops=0)), "woot")
        assert (report.metrics.final_visible, report.metrics.final_total) == (3, 3)


class TestOneRecord:
    """Every replica, and a sequencer server, counts into the run's one
    MetricsBundle; an engine built alone counts into its own."""

    @pytest.mark.parametrize("engine,mode,sites", [("ot", "causal", 2), ("ot", "sequencer", 3), ("woot", "causal", 3)])
    def test_every_engine_counts_into_the_report(self, engine, mode, sites):
        scenario = Scenario("abcd", sites, mode, UniformLatency(1, 4), 3, fuzz=FuzzSpec(n_ops=30))
        run = _Run(scenario, engine, ablation=False)
        report = run.finish()
        assert report.ok
        counted = [s.engine.metrics for s in run.sites.values()]
        if run.server is not None:
            counted.append(run.server.metrics)
        assert all(m is report.metrics for m in counted)
        assert report.metrics.engine == engine
        assert report.metrics.transform_total == sum(report.metrics.c_samples)
        assert len(report.metrics.local_ns) == len(report.script)

    def test_engines_built_alone_do_not_share(self):
        for a, b in [
            (OtSite(site=0), OtSite(site=1)),
            (SequencerClient(site=0), SequencerServer(client_ids=[0])),
            (WootSite.create(0, "ab"), WootSite.create(1, "ab")),
        ]:
            assert a.metrics is not b.metrics


class TestWireBytes:
    """The simulator counts every envelope it encodes (ops, stream messages,
    acks) into the run's `wire_bytes` and `wire_messages`."""

    @staticmethod
    def _bytes_per_message(sites: int, engine: str, mode: str) -> float:
        initial = ("the quick brown fox jumps over the lazy dog " * 10)[:400]
        report = run_scenario(Scenario(initial, sites, mode, UniformLatency(1, 8), 3, fuzz=FuzzSpec(n_ops=600)), engine)
        assert report.ok and report.metrics.wire_messages >= 600
        return report.metrics.wire_bytes / report.metrics.wire_messages

    def test_sequencer_bytes_per_message_flat_in_the_site_count(self):
        """A sequencer message carries Jupiter's counters, not a clock of 12 B
        per site: at 17 sites it is within 10% of its size at 3 (37.6 and 36.2
        B; 68.9 and 229.3 B when it carried a clock). A causal WOOT message
        still carries one, so its size grows with the sites (99.0 to 260.3
        B). Budget: 2 s."""
        t0 = time.perf_counter()
        few, many = (self._bytes_per_message(n, "ot", "sequencer") for n in (3, 17))
        assert abs(many / few - 1) <= 0.10, (few, many)
        woot_few, woot_many = (self._bytes_per_message(n, "woot", "causal") for n in (3, 17))
        assert woot_many > 2 * woot_few, (woot_few, woot_many)
        assert time.perf_counter() - t0 < 2.0

    def test_symmetric_message_carries_two_counters(self):
        """A symmetric OT peer's message carries Jupiter's two counters and an
        envelope with no clock entry: 37.5 B at 2 sites (53.3 B when it
        carried a clock), within 1 B of a 3-site sequencer message (37.6 B).
        Budget: 1 s."""
        t0 = time.perf_counter()
        symmetric, sequencer = self._bytes_per_message(2, "ot", "causal"), self._bytes_per_message(3, "ot", "sequencer")
        assert abs(symmetric - sequencer) <= 1.0, (symmetric, sequencer)
        data = encode_message(OtSite(site=1, state="ab").local(Delete(0)))
        assert struct.unpack_from(">IQI", data) == (1, 1, 0)  # origin, seq, nclock
        assert time.perf_counter() - t0 < 1.0

    def test_kept_out_of_the_summary_and_the_report(self):
        report = run_scenario(fig1_scenario(), "ot")
        assert (report.metrics.wire_messages, report.metrics.wire_bytes > 0) == (2, True)
        assert "wire_bytes" not in json.dumps(report.to_dict()) and "wire_messages" not in report.metrics.summary()


class TestPercentiles:
    def test_summary_has_p50_and_p99(self):
        summary = run_scenario(fig1_scenario(), "woot").metrics.summary()
        for side in ("local", "remote"):
            assert 0 < summary[f"{side}_ns_p50"] <= summary[f"{side}_ns_p99"]

    def test_nearest_rank(self):
        bundle = metrics.MetricsBundle("woot", local_ns=list(range(100, 0, -1)), remote_ns=[7])
        summary = bundle.summary()
        assert (summary["local_ns_p50"], summary["local_ns_p99"]) == (50, 99)
        assert (summary["remote_ns_p50"], summary["remote_ns_p99"]) == (7, 7)
        empty = metrics.MetricsBundle("woot").summary()
        assert (empty["local_ns_p50"], empty["local_ns_p99"]) == (0, 0)


class TestRows:
    def test_csv_columns_exact(self):
        report = run_scenario(fig1_scenario(), "ot")
        row = csv_row("run-7", report)
        assert list(row) == CSV_COLUMNS
        text = rows_to_csv([row])
        header, line = text.strip().split("\n")
        assert header == ",".join(CSV_COLUMNS)
        assert line.startswith("run-7,ot,2,3,2,")


class TestInitCost:
    def test_buffer_engine_starts_empty(self):
        result = measure_init(1000)
        assert result["ot_init_entries"] == 0
        assert result["woot_init_objects"] == 1000


@pytest.fixture(scope="module")
def small_bench():
    return metrics.bench(Workload(doc_len=2000, sites=3, n_ops=60, window=10, seed=0))


class TestBench:
    def test_all_checks_pass(self, small_bench):
        assert small_bench["ok"], small_bench["checks"]

    def test_sequential_ot_no_transforms(self, small_bench):
        assert small_bench["checks"]["ot_sequential_transforms_zero"]

    def test_woot_search_steps_always_nonzero(self, small_bench):
        assert small_bench["checks"]["woot_search_steps_every_op"]

    def test_table_rows_labelled(self, small_bench):
        names = {row["workload"] for row in small_bench["table"]}
        assert names == {"sequential_ot", "sequential_woot", "concurrent_ot", "concurrent_woot"}

    def test_search_steps_grow_with_doc(self):
        small = metrics.bench(Workload(doc_len=500, sites=2, n_ops=20, window=1, seed=1))
        large = metrics.bench(Workload(doc_len=5000, sites=2, n_ops=20, window=1, seed=1))

        def mean_steps(b):
            row = next(r for r in b["table"] if r["workload"] == "sequential_woot")
            return row["search_steps_total"]

        assert mean_steps(large) > mean_steps(small)

    def test_empty_window_rejected(self):
        # rejected when the scenario is built, before any op is scheduled
        with pytest.raises(ScenarioError, match="fuzz window"):
            metrics.bench(Workload(doc_len=20, sites=2, n_ops=10, window=0, seed=0))


class TestCli:
    def test_fig1_exit_zero(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert out.count("'ace'") >= 4

    def test_run_fig1_json(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["run", "--engine", "woot", "--scenario", "fig1", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["converged"] is True
        # json output sorts keys; the column set must still match exactly
        assert sorted(payload["csv_row"]) == sorted(CSV_COLUMNS)

    def test_run_scenario_file_csv(self, tmp_path):
        scn = tmp_path / "s.scn"
        scn.write_text("sites 2\ndoc abe\nmode causal\nseed 0\n@1 s0 D 1\n@1 s1 I 2 c\n")
        out = tmp_path / "rows.csv"
        assert main(["run", "--engine", "ot", "--scenario", str(scn), "--format", "csv", "--output", str(out)]) == 0
        assert out.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_run_ablation_exits_one(self, capsys):
        code = main(["run", "--engine", "woot", "--scenario", "fig1", "--ablation", "skip34"])
        assert code == 1
        assert "divergence" in capsys.readouterr().err

    def test_fuzz_exit_zero(self, tmp_path):
        out = tmp_path / "fuzz.json"
        assert main(["fuzz", "--runs", "5", "--seed", "50", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["ok"] and payload["runs"] == 10

    def test_bad_args_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--engine", "nope", "--scenario", "fig1"])
        assert exc.value.code == 2

    def test_bad_scenario_exits_two(self, tmp_path, capsys):
        scn = tmp_path / "bad.scn"
        scn.write_text("sites 2\nlatency fixed\n")
        assert main(["run", "--engine", "ot", "--scenario", str(scn)]) == 2
        assert "line 2 'latency fixed'" in capsys.readouterr().err
        assert main(["run", "--engine", "ot", "--scenario", str(tmp_path / "missing.scn")]) == 2
        capsys.readouterr()
        scn.write_text("sites 2\ndoc ab\n@1 s0 D 5\n")  # the scripted op is out of range
        for engine in ("ot", "woot"):
            assert main(["run", "--engine", engine, "--scenario", str(scn)]) == 2
            assert "bad scenario: script entry '@1 s0 D 5'" in capsys.readouterr().err
        scn.write_text("sites 0\ndoc ab\n")
        assert main(["run", "--engine", "woot", "--scenario", str(scn)]) == 2
        assert "at least 1 site" in capsys.readouterr().err

    def test_non_utf8_scenario_exits_two(self, tmp_path, capsys):
        """A scenario file is UTF-8 text; other bytes are a bad scenario, not a crash."""
        scn = tmp_path / "latin1.scn"
        scn.write_bytes(b"sites 2\ndoc ab\n@1 s0 I 0 \xff\n")
        assert main(["run", "--engine", "ot", "--scenario", str(scn)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bad scenario: ") and "can't decode byte 0xff" in err and "Traceback" not in err

    @staticmethod
    def _exits_two(argv, capsys, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_bad_gt_seed_exits_two(self, monkeypatch, capsys):
        monkeypatch.setenv("GT_SEED", "abc")
        self._exits_two(["run", "--engine", "ot", "--scenario", "fig1"], capsys, "GT_SEED must be an integer, got 'abc'")

    def test_fuzz_ops_below_ten_exits_two(self, capsys):
        # a session draws its op count from 10..--ops
        self._exits_two(["fuzz", "--ops", "5"], capsys, "argument --ops: must be at least 10, got 5")

    def test_fuzz_negative_runs_exits_two(self, capsys):
        self._exits_two(["fuzz", "--runs", "-3"], capsys, "argument --runs: must be at least 1, got -3")
        self._exits_two(["fuzz", "--runs", "x"], capsys, "argument --runs: invalid int value: 'x'")

    def test_bench_zero_sites_exits_two(self, capsys):
        self._exits_two(["bench", "--sites", "0"], capsys, "argument --sites: must be at least 1, got 0")
        # a window of 0 would never schedule an op
        self._exits_two(["bench", "--window", "0"], capsys, "argument --window: must be at least 1, got 0")

    def test_bench_without_ops_reports_the_document(self, capsys):
        assert main(["bench", "--doc-len", "200", "--ops", "0"]) == 0
        rows = json.loads(capsys.readouterr().out)["table"]
        woot = [(r["C"], r["C_t"]) for r in rows if r["engine"] == "woot"]
        assert woot == [(200, 200), (200, 200)]

    def test_python_dash_m(self):
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("GT_SEED", None)
        done = subprocess.run([sys.executable, "-m", "coedit", "fig1"], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0 and "converged=True" in done.stdout
        done = subprocess.run([sys.executable, "-m", "coedit", "fuzz", "--ops", "5"], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2 and "Traceback" not in done.stderr

    def test_gt_seed_overrides(self, tmp_path, monkeypatch):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        scn = tmp_path / "f.scn"
        scn.write_text("sites 2\ndoc ab\nmode sequencer\nseed 1\n@1 s0 I 0 x\n")
        monkeypatch.setenv("GT_SEED", "9")
        assert main(["run", "--engine", "ot", "--scenario", str(scn), "--output", str(out1)]) == 0
        monkeypatch.delenv("GT_SEED")
        assert main(["run", "--engine", "ot", "--scenario", str(scn), "--seed", "9", "--output", str(out2)]) == 0
        assert json.loads(out1.read_text())["seed"] == json.loads(out2.read_text())["seed"] == 9
