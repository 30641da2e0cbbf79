#!/usr/bin/env python3
# Copyright 2026 The gkmeans Authors.
"""Self-test of the repo benchmark: a tiny-size run of every workload, untraced
and traced, must pass its output checks and emit exactly the metrics that
BENCHMARK.json names, with their units.

  python3 perfbench/test_perfbench.py          # from the repository root
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    return proc


class TinyRuns(unittest.TestCase):
    def check(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        lines = proc.stdout.strip().splitlines()
        host = json.loads(lines[0])["host"]
        for key in ("nproc", "simd_tier", "build_type", "gkm_no_stats", "undersized_host"):
            self.assertIn(key, host)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-3000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in want})
        for m in want:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0.0, m["name"])
        if trace:
            layer_map = json.loads(lines[-2])["layer_map"]
            self.assertEqual(set(layer_map), {m["name"] for m in want})
            if workload in ("batch_cluster", "stream_churn"):
                # The layer spans must account for the traced op time.
                self.assertGreaterEqual(result["metrics"]["bench.span_coverage"]["value"], 0.9)

    def test_workloads(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)

    def test_unknown_workload_fails(self):
        proc = run("no_such_workload", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
