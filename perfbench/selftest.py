"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload shape at a size that takes well under a second, through
the same measurement code as run.py, and checks the metric names against
BENCHMARK.json, the correctness accounting, the exact-count repeatability
and that the hooks leave the library as they found it.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import coedit.harness  # noqa: E402
import coedit.netsim  # noqa: E402
import coedit.ot  # noqa: E402
from coedit.harness import Scenario, ScriptEntry  # noqa: E402
from coedit.model import Delete  # noqa: E402

import measure  # noqa: E402
import run as run_script  # noqa: E402
from tracing import Probe  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

SEED = 3


class TestContract(unittest.TestCase):
    def test_benchmark_json_names_match(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual(list(TINY), list(WORKLOADS))
        self.assertEqual(run_script.WORKLOAD_NAMES, tuple(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, measure.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, measure.PER_LAYER)

    def test_percentile_leaves_one_percent_beyond_p99(self):
        self.assertEqual(measure.percentile(range(1, 1001), 99), 990.0)
        self.assertEqual(measure.percentile([5], 50), 5.0)

    def test_missing_sources_exit_nonzero_without_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "ot_long", "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn("correct", out.stdout)


class TestUntraced(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        for name, workload in TINY.items():
            with self.subTest(workload=name):
                run = measure.measure(workload, SEED, 1.0, SRC)
                self.assertEqual(run["failures"], [])
                self.assertTrue(run["consistent"])
                self.assertGreaterEqual(run["passes"], 2)
                self.assertEqual(set(run["metrics"]), set(measure.END_TO_END))
                self.assertTrue(all(v > 0 for v in run["metrics"].values()), run["metrics"])

    def test_exact_block_repeats_for_a_seed(self):
        workload = TINY["fuzz_mixed"]
        first = measure.measure(workload, SEED, 0.1, SRC)["exact"]
        again = measure.measure(workload, SEED, 0.3, SRC)["exact"]
        other = measure.measure(workload, SEED + 1, 0.1, SRC)["exact"]
        self.assertEqual(first, again)
        self.assertEqual(first["sessions"], 2 * len(workload.batch(SEED)))
        self.assertNotEqual(first["trace_digests"], other["trace_digests"])

    def test_failing_session_is_counted(self):
        bad = Scenario(initial="ab", sites=2, script=(ScriptEntry(1, 0, Delete(5)),))
        tally = measure.Tally()
        measure.run_round([(bad, "ot")], Probe(), tally, measure.Exact())
        self.assertEqual((tally.sessions, len(tally.failures), tally.ops), (1, 1, 0))
        self.assertIn("BoundsError", tally.failures[0])

    def test_best_keeps_the_fastest_of_each_piece(self):
        piece = lambda local, remote, events, rest: measure.Best(
            2, array("q", local), array("q", remote), array("q", events), rest
        )
        best = piece([5, 1], [3, 9], [10, 20], 7)
        self.assertTrue(best.merge(piece([2, 4], [8, 1], [30, 5], 9)))
        self.assertEqual((list(best.local_ns), list(best.remote_ns), list(best.event_ns), best.rest_ns), ([2, 1], [3, 1], [10, 5], 7))
        self.assertEqual(best.host_ns(), 22)
        self.assertFalse(best.merge(piece([1], [1, 1], [1, 1], 1)))
        self.assertEqual(list(best.local_ns), [2, 1])


class TestTraced(unittest.TestCase):
    def test_layers_follow_the_workloads(self):
        originals = (coedit.ot.transform, coedit.netsim.encode_message, coedit.harness.Simulator)
        runs = {name: measure.measure_traced(w, SEED, 0.1, None) for name, w in TINY.items()}
        self.assertEqual((coedit.ot.transform, coedit.netsim.encode_message, coedit.harness.Simulator), originals)
        for name, run in runs.items():
            with self.subTest(workload=name):
                self.assertEqual(run["failures"], [])
                self.assertTrue(run["consistent"])
                self.assertEqual(set(run["metrics"]), set(measure.PER_LAYER))
        m = {name: run["metrics"] for name, run in runs.items()}
        self.assertGreater(m["woot_bigdoc"]["woot.remote_us"], 0)
        self.assertEqual(m["ot_long"]["woot.remote_us"], 0)
        self.assertEqual(m["seq_readers"]["woot.local_us"], 0)
        self.assertGreater(m["ot_long"]["model.happened_before_calls_per_remote"], 0)
        self.assertEqual(m["woot_bigdoc"]["model.happened_before_calls_per_remote"], 0)
        self.assertGreater(m["seq_readers"]["ot.bridge_len_max"], 0)
        self.assertGreater(m["fuzz_mixed"]["ot.server_process_us"], 0)
        self.assertEqual(m["seq_readers"]["netsim.ready_checks_per_delivery"], 0)
        self.assertGreaterEqual(m["woot_bigdoc"]["netsim.ready_checks_per_delivery"], 1)

    def test_traced_exact_block_matches_untraced(self):
        workload = TINY["seq_readers"]
        untraced = measure.measure(workload, SEED, 0.0, SRC)["exact"]
        traced = measure.measure_traced(workload, SEED, 0.0, None)["exact"]
        self.assertEqual(untraced, traced)


if __name__ == "__main__":
    unittest.main()
