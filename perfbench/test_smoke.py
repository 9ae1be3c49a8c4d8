#!/usr/bin/env python3
"""Smoke test of the benchmark: one request per workload.

    python3 perfbench/test_smoke.py        # from the root of the tree

Checks the result schema, that the metric names and units are exactly
BENCHMARK.json's, that every request's logits are checked (a corrupted
result fails the run), that fault-injection knobs are refused, that a tree
without the library sources fails without a result, and that BENCHMARK.json
states the latency limits and rates perfbench/workloads.json runs with.
"""
import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def load(path):
    with open(path) as f:
        return json.load(f)


def run(workload, *extra, trace=0, env=None, cwd=ROOT):
    cmd = RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc, result


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = load(os.path.join(ROOT, "BENCHMARK.json"))
        cls.workloads = load(os.path.join(HERE, "workloads.json"))

    def check_result(self, proc, result, trace):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertIsNotNone(result)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in self.spec["per_layer" if trace else "end_to_end"]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"}, name)
            self.assertTrue(math.isfinite(m["value"]), name)

    def test_spec_matches_workloads(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(names, list(self.workloads))
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        for w in self.spec["workloads"]:
            wl = self.workloads[w["name"]]
            self.assertIn(f"Latency limit {wl['latency_limit_s']:g} s", w["why"])
            if "rate_rps" in wl:
                self.assertIn(f"{wl['rate_rps']:g} req/s", w["why"])

    def test_one_request_per_workload(self):
        for name, wl in self.workloads.items():
            for trace in (0, 1):
                with self.subTest(workload=name, trace=trace):
                    proc, result = run(name, "--smoke", trace=trace)
                    self.check_result(proc, result, trace)
                    if trace == 0:
                        self.assertEqual(result["attempted"], 1)

    def test_wrong_logits_fail_the_run(self):
        proc, result = run("nano-fpc", "--smoke", "--inject-mismatch")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIs(result["correct"], False)
        self.assertEqual(result["failed"], 1)

    def test_fault_knobs_are_refused(self):
        for knob in ("PRIMER_FAULT_DROP", "PRIMER_STORE_FAULT_AT", "PRIMER_PHASE_DEADLINE_S"):
            with self.subTest(knob=knob):
                proc, result = run("nano-fpc", "--smoke", env=dict(os.environ, **{knob: "1"}))
                self.assertNotEqual(proc.returncode, 0)
                self.assertIsNone(result)

    def test_tree_without_sources_fails(self):
        bare = os.path.join(ROOT, ".bench_build", "bare_tree")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "nano-fpc", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
