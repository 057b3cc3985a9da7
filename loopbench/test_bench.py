#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 loopbench/test_bench.py [--seconds S] [--workload W ...]

Run from the root of a source checkout. For each workload:

1. Second seed: runs the untraced benchmark on two seeds and checks that
   every end-to-end metric of the second stays within its BENCHMARK.json
   bound of the first, so a claim made on one seed can be rechecked on a
   seed that was not used to build it.
2. Traced-run consistency: runs with --trace 1 and checks, from the span
   file, that no span's children add up to more than its wall time, that
   every operation's spans share its id, and that the unattributed
   remainder and the trace overhead are reported.

Exits 0 when every check passes.
"""

import argparse
import collections
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIRST_SEED = 101
SECOND_SEED = 202
TRACE_SEED = 303


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError("%s seed %d trace %d: exit %d" %
                             (workload, seed, trace, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise AssertionError("%s seed %d: incorrect run" % (workload, seed))
    return result


def check_second_seed(spec, workload, seconds):
    a = run(workload, FIRST_SEED, seconds, 0)["metrics"]
    b = run(workload, SECOND_SEED, seconds, 0)["metrics"]
    failures = []
    for m in spec["end_to_end"]:
        va, vb = a[m["name"]]["value"], b[m["name"]]["value"]
        worse = (vb - va) / va if m["better"] == "lower" else (va - vb) / va
        print("  %-28s seed %d: %12.4f  seed %d: %12.4f  %+.3f" %
              (m["name"], FIRST_SEED, va, SECOND_SEED, vb, worse))
        if abs(worse) > m["bound"]:
            failures.append("%s moved %.3f between seeds (bound %.2f)" %
                            (m["name"], worse, m["bound"]))
    return failures


def span_file(workload, seed):
    build_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                     ".bench_build"))
    return os.path.join(build_dir, "traces",
                        "spans-%s-%d.jsonl" % (workload, seed))


def check_trace(workload, seconds):
    result = run(workload, TRACE_SEED, seconds, 1)
    failures = []
    metrics = result["metrics"]
    for name in ("obs.unattributed_pct", "obs.trace_overhead_pct"):
        if name not in metrics:
            failures.append("traced run did not report " + name)

    spans = collections.defaultdict(dict)  # thread -> idx -> span
    for line in open(span_file(workload, TRACE_SEED)):
        rec = json.loads(line)
        if "name" in rec:
            spans[rec["thread"]][rec["idx"]] = rec
    child_ms = collections.defaultdict(float)
    n = 0
    for thread, by_idx in spans.items():
        for s in by_idx.values():
            n += 1
            if s["end_ms"] < s["start_ms"]:
                failures.append("span %s ends before it starts" % s["name"])
            if s["parent"] >= 0:
                parent = by_idx[s["parent"]]
                if parent["op"] != s["op"]:
                    failures.append("span %s is not in its parent's "
                                    "operation" % s["name"])
                child_ms[(thread, s["parent"])] += s["end_ms"] - s["start_ms"]
    over = 0
    for (thread, idx), ms in child_ms.items():
        s = spans[thread][idx]
        if ms > s["end_ms"] - s["start_ms"] + 1e-6:
            over += 1
    if over:
        failures.append("%d spans have more child time than wall time" %
                        over)
    if n == 0:
        failures.append("no spans recorded")
    print("  %d spans; unattributed %.1f%%, trace overhead %+.1f%%" %
          (n, metrics["obs.unattributed_pct"]["value"],
           metrics["obs.trace_overhead_pct"]["value"]))
    return failures


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workload", action="append",
                    default=None, choices=[w["name"]
                                           for w in spec["workloads"]])
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    failures = []
    for w in workloads:
        print("%s: second seed" % w)
        failures += ["%s: %s" % (w, f)
                     for f in check_second_seed(spec, w, args.seconds)]
        print("%s: traced run" % w)
        failures += ["%s: %s" % (w, f)
                     for f in check_trace(w, args.seconds)]
    for f in failures:
        print("FAIL " + f)
    print("OK" if not failures else "%d failures" % len(failures))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
