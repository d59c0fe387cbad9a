#!/usr/bin/env python3
"""Smoke test of the wall-clock benchmark (perfbench/README.md).

    python3 perfbench/test_smoke.py

Runs every workload named in BENCHMARK.json in its short --smoke mode,
untraced and traced, and checks that the result line carries exactly the
metrics BENCHMARK.json names, each with its unit, that a traced run names
the layers its workload never reaches, that the correctness gate ran and
passed, and that a run whose gate reference is tampered with fails.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 987654  # not one of the seeds the benchmark was tuned on


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "0.3",
           "--trace", str(trace), "--smoke", *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    lines = out.stdout.strip().splitlines()
    return out.returncode, lines, out.stderr


class SmokeTest(unittest.TestCase):
    contract = load_contract()

    def check(self, workload, trace, metrics):
        rc, lines, err = run(workload, trace)
        self.assertEqual(rc, 0, err)
        self.assertGreaterEqual(len(lines), 2, err)
        result = json.loads(lines[-1])
        info = json.loads(lines[-2])["perfbench"]
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertGreater(info["gate_checks"], 0)
        want = {m["name"]: m["unit"] for m in metrics}
        got = result["metrics"]
        self.assertEqual(set(got), set(want))
        for name, unit in want.items():
            self.assertEqual(got[name]["unit"], unit, name)
            self.assertIsInstance(got[name]["value"], (int, float), name)
        if trace:
            # Layers the workload never reaches are named and read 0.
            self.assertLess(len(info["not_on_path"]), len(want))
            for name in info["not_on_path"]:
                self.assertEqual(got[name]["value"], 0, name)
            self.assertIn("host_probe_us", info)

    def test_end_to_end_metrics(self):
        for w in self.contract["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 0, self.contract["end_to_end"])

    def test_per_layer_metrics(self):
        for w in self.contract["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 1, self.contract["per_layer"])

    def test_tampered_reference_fails_the_run(self):
        for w in self.contract["workloads"]:
            with self.subTest(workload=w["name"]):
                rc, lines, err = run(w["name"], 0, "--tamper")
                self.assertEqual(rc, 1, err)
                self.assertIs(json.loads(lines[-1])["correct"], False)


if __name__ == "__main__":
    unittest.main()
