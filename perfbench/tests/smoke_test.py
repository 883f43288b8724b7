#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at toy size, untraced and
traced, must pass its correctness checks and emit every metric named in
BENCHMARK.json with its unit.

    python3 perfbench/tests/smoke_test.py
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "2", "--trace", str(trace),
         "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(
            f"{workload} trace={trace} exited {proc.returncode}:\n"
            f"{proc.stdout[-4000:]}\n{proc.stderr[-4000:]}")
    return lines


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        lines = run(workload, trace)
        self.assertTrue(lines[0].startswith("host "), lines[0])
        host = json.loads(lines[0][len("host "):])
        for key in ("nproc", "cpu_model", "build_type", "compiler", "git_sha"):
            self.assertIn(key, host)
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        spec = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec})
        for m in spec:
            emitted = result["metrics"][m["name"]]
            self.assertEqual(emitted["unit"], m["unit"], m["name"])
            self.assertIsInstance(emitted["value"], (int, float), m["name"])

    def test_workloads(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)


if __name__ == "__main__":
    unittest.main()
