#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 lcbench/test_lcbench.py

- Smoke: every workload, at tiny size, untraced and traced, must exit 0
  and print exactly the end-to-end (untraced) or per-layer (traced)
  metrics named in BENCHMARK.json, each with its unit, as the last line.
- Seeded fault: with --inject-fault one expected estimate is perturbed by
  one ulp, so the bit-match check must fail the run (correct=false, exit 1)
  on every workload.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(ROOT, "lcbench", "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "2",
               "--trace", str(trace), "--smoke", *extra]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    lines = out.stdout.strip().splitlines()
    return out.returncode, (json.loads(lines[-1]) if lines else None), out


class SmokeTest(unittest.TestCase):
    def check(self, trace, spec_key):
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                code, result, out = run(workload, trace)
                self.assertEqual(code, 0, out.stdout[-2000:] + out.stderr[-2000:])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                printed = {name: value["unit"]
                           for name, value in result["metrics"].items()}
                self.assertEqual(printed, expected)
                for name, value in result["metrics"].items():
                    self.assertIsInstance(value["value"], (int, float), name)

    def test_end_to_end_metrics_printed(self):
        self.check(0, "end_to_end")

    def test_per_layer_metrics_printed(self):
        self.check(1, "per_layer")


class SeededFaultTest(unittest.TestCase):
    def test_perturbed_expectation_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, out = run(workload, 0, "--inject-fault")
                self.assertEqual(code, 1, out.stdout[-2000:])
                self.assertFalse(result["correct"])


class RefusesKnobsTest(unittest.TestCase):
    def test_program_knob_in_environment_refused(self):
        env = dict(os.environ, LC_SERVE_WINDOW_US="0")
        out = subprocess.run(
            [sys.executable, os.path.join(ROOT, "lcbench", "run.py"),
             "--workload", "miss_closed", "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=60)
        self.assertEqual(out.returncode, 2)
        self.assertEqual(out.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
