#!/usr/bin/env python3
"""Builds and runs the analysis-loop benchmark.

    python3 loopbench/run.py --workload explore|clean \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and
builds loopbench/ (the statdb library from src/ plus analysis_loop) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
rebuild what changed. The program's human-readable lines go to stdout,
and the last line is one JSON object: correct, attempted, failed and the
metrics BENCHMARK.json names (end_to_end with --trace 0, per_layer with
--trace 1). A wrong answer, a failed Recover() check or a failed regime
check prints correct=false and exits 1.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds analysis_loop; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "analysis_loop",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "analysis_loop")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                     ".bench_build"))
    binary = build(build_dir)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    t0 = time.monotonic()
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", trace_dir],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if proc.returncode != 0 or result is None:
        fail("analysis_loop exited with %d" % proc.returncode)

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("analysis_loop did not report " + m["name"])
        if got["unit"] != m["unit"]:
            fail("%s: unit %s, BENCHMARK.json says %s" %
                 (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print("seed %d, %s, %.1f s" % (args.seed, args.workload,
                                   time.monotonic() - t0))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
