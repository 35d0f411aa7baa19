#!/usr/bin/env python3
"""Tests of the repo benchmark itself (perfbench/run.py).

    python3 perfbench/test_run.py

Runs every workload shrunk (--smoke, 1 second) and checks that:
  * an untraced run prints every end_to_end metric of BENCHMARK.json with
    its unit and a positive value, and a traced run every per_layer metric;
  * the outcome checks pass (failed == 0, exit 0);
  * scoring against a deliberately wrong truth (--expect-wrong) raises
    fail_frac above 0 and makes the run exit non-zero;
  * in a directory holding only BENCHMARK.json and perfbench/ (no library
    sources) the benchmark exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cluster_flood", "cluster_flood_large", "wormhole_small",
             "wormhole_large", "stream_replay")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900, check=False)


def last_json(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, listed):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        want = {m["name"]: m["unit"] for m in listed}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for value in result["metrics"].values():
            self.assertIsInstance(value["value"], (int, float))

    def test_every_metric_is_emitted_with_its_unit(self):
        s = spec()
        for workload in WORKLOADS:
            for trace, listed in ((0, s["end_to_end"]), (1, s["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    done = run(workload, trace)
                    self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                    result = last_json(done)
                    self.check_metrics(result, listed)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertIn("fail_frac 0.0", done.stdout)
                    self.assertRegex(done.stdout, r"(?m)^digest [0-9a-f]{16}$")
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_wrong_expected_outcome_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                done = run(workload, 0, "--expect-wrong")
                self.assertEqual(done.returncode, 1, done.stderr[-2000:])
                result = last_json(done)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertGreater(result["failed"] / result["attempted"], 0)

    def test_digest_repeats_for_one_seed(self):
        first = run("wormhole_small", 0)
        second = run("wormhole_small", 0)
        digest = [line for line in first.stdout.splitlines()
                  if line.startswith("digest ")]
        self.assertEqual(len(digest), 1)
        self.assertIn(digest[0], second.stdout.splitlines())

    def test_refuses_without_library_sources(self):
        # Inside the (ignored) build directory, so the test writes nothing
        # outside the checkout.
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run("cluster_flood", 0, cwd=tmp)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
