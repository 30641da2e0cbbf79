#!/usr/bin/env python3
# Copyright 2026 The gkmeans Authors.
"""Entry point of the repo benchmark.

Builds the gkbench program (perfbench/CMakeLists.txt, which compiles the
library from this checkout's sources) into .bench_build/perfbench, runs one
workload and passes its output through. The last stdout line is the result:

  {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

Usage, from the repository root:

  python3 perfbench/run.py --workload batch_cluster --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 30 --trace 1

--size tiny selects the self-test sizes. The metric names of the result are
checked against BENCHMARK.json; any failure exits non-zero without a result.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures (once) and builds gkbench; returns its path or None."""
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release",
                   "-DGKM_CCACHE=OFF"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                shutil.rmtree(bdir, ignore_errors=True)
                return None
        jobs = str(os.cpu_count() or 1)
        cmd = ["cmake", "--build", bdir, "--target", "gkbench", "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    exe = os.path.join(bdir, "gkbench")
    return exe if os.path.exists(exe) else None


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}, [w["name"] for w in spec["workloads"]]


def check_result(line, trace):
    """Returns an error string, or None when the result line is well-formed."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return "failed must be a whole number"
    want, _ = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want)))
    for name, m in got.items():
        if m.get("unit") != want[name]:
            return "unit of %s is %s, BENCHMARK.json says %s" % (name, m.get("unit"), want[name])
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            return "value of %s is not a finite number" % name
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args()

    _, workloads = expected_metrics(args.trace)
    if args.workload not in workloads:
        log("unknown workload %s (BENCHMARK.json has %s)" % (args.workload, workloads))
        return 2
    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        log("build failed")
        return 1
    out_dir = os.path.join(bdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("gkbench exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("gkbench exited with %d" % proc.returncode)
        return 1
    error = check_result(lines[-1], args.trace)
    if error:
        log("bad result: " + error)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
