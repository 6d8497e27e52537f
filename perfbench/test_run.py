#!/usr/bin/env python3
"""The benchmark's own tests: every workload, check and ledger at tiny size.

    python3 perfbench/test_run.py

Run from the repository root; the first run builds .bench_build.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

with open("BENCHMARK.json") as f:
    SPEC = json.load(f)


def bench(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=900)
    return proc


class WorkloadTest(unittest.TestCase):
    def check(self, workload, trace, section):
        proc = bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        names = {m["name"]: m["unit"] for m in SPEC[section]}
        self.assertEqual(set(result["metrics"]), set(names))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], names[name], name)
        return result["metrics"]

    def test_end_to_end(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check(workload, 0, "end_to_end")
                for name, metric in metrics.items():
                    self.assertGreater(metric["value"], 0, name)
                self.assertEqual(metrics["success_ratio"]["value"], 1.0)

    def test_per_layer(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check(workload, 1, "per_layer")
                ratio = metrics["trace.ledger_ratio"]["value"]
                self.assertGreaterEqual(ratio, 1 - run.LEDGER_TOLERANCE)
                self.assertLessEqual(ratio, 1 + run.LEDGER_TOLERANCE)
                self.assertGreater(metrics["trace.total_s"]["value"], 0)
                self.assertGreater(metrics["data.rows_read"]["value"], 0)


class LedgerTest(unittest.TestCase):
    TRACE = {
        "spans": [
            {"name": "replica", "parent": -1, "start_ns": 0, "end_ns": 100},
            {"name": "data.read_csv", "parent": 0, "start_ns": 0,
             "end_ns": 30},
            {"name": "eval.loop", "parent": 0, "start_ns": 30,
             "end_ns": 99},
        ],
        "calls": [
            {"name": "highorder.predict", "parent": "eval.loop",
             "thread": "caller", "calls": 5, "items": 0, "busy_ns": 40},
            {"name": "classifiers.train", "parent": "highorder.build",
             "thread": "pool", "calls": 1, "items": 9, "busy_ns": 500},
        ],
    }

    def test_self_times_exclude_children_and_pool_threads(self):
        total, self_ns = run.layer_ledger(self.TRACE)
        self.assertEqual(total, 100)
        self.assertEqual(self_ns, {"data.read_csv": 30, "eval.loop": 29,
                                   "highorder.predict": 40})

    def test_unattributed_time_fails_the_ledger(self):
        trace = dict(self.TRACE, values={})
        self.assertTrue(run.TraceSummary(trace).ledger_ok)
        trace["spans"] = [dict(s) for s in self.TRACE["spans"]]
        trace["spans"][2]["end_ns"] = 80  # 20% of the root uncovered
        self.assertFalse(run.TraceSummary(trace).ledger_ok)


class CheckoutTest(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        bare = os.path.join(run.BUILD_DIR, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "evaluate-intrusion", "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=bare, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
