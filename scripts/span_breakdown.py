#!/usr/bin/env python3
"""Per-operation breakdown of the DBMS phases in a loopbench span file.

    python3 scripts/span_breakdown.py <build>/traces/spans-explore-7.jsonl
    python3 scripts/span_breakdown.py --calls <span file>

A traced loopbench run (`loopbench/run.py --trace 1`) writes one JSON
line per span: its thread buffer, its index in that buffer, the index of
its parent in the same buffer (-1 for a root), its name and its start
and end in ms. Every root is an `op.<kind>` span. For each pair of root
operation and `dbms.<phase>` descendant this prints the number of phase
spans and the p50 and p90 of their durations in ms. Summary lines
(`{"self": ...}`) are skipped. The phases are the engine's span kinds:
`dbms.order_build` (an order state sorted from a gather, or its queued
changes merged in) is its own phase, apart from the `dbms.compute` of
the answers read from the state.

With --calls it prints, for each `call.<kind>` span (the timed engine
call inside an operation), the number of calls, their summed and p50
durations in ms, and their share of the summed duration of all calls:
where the loop's engine time goes.

    python3 scripts/span_breakdown.py --compare PARENT CHANGE

With --compare it reads two span files (say, the same seed and workload
run at a parent commit and at a change) and prints, for each
`call.<kind>` and then for each pair of root operation and `dbms.<phase>`,
the p50 in ms of each file and their ratio CHANGE / PARENT: the
per-layer report of a change in one command. A row one file lacks shows
`-` for its p50 and its ratio.
"""

import argparse
import collections
import json
import sys


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def load(path):
    """Spans keyed by (thread, idx)."""
    spans = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if "name" in rec:
                spans[(rec["thread"], rec["idx"])] = rec
    return spans


def root_name(spans, key):
    """Name of the root span above `key` (a parent is always an earlier
    span of the same buffer), or None if the chain breaks."""
    while key in spans and spans[key]["parent"] >= 0:
        key = (key[0], spans[key]["parent"])
    return spans[key]["name"] if key in spans else None


def breakdown(spans):
    """{(root op, dbms phase): [durations in ms]}."""
    out = collections.defaultdict(list)
    for key, rec in spans.items():
        if not rec["name"].startswith("dbms."):
            continue
        root = root_name(spans, key)
        if root is None or not root.startswith("op."):
            continue
        out[(root, rec["name"])].append(rec["end_ms"] - rec["start_ms"])
    return out


def calls(spans):
    """{call kind: [durations in ms]}."""
    out = collections.defaultdict(list)
    for rec in spans.values():
        if rec["name"].startswith("call."):
            out[rec["name"]].append(rec["end_ms"] - rec["start_ms"])
    return out


def print_calls(path):
    rows = calls(load(path))
    if not rows:
        print("no call.* spans in " + path, file=sys.stderr)
        return 1
    total = sum(sum(ms) for ms in rows.values())
    print("%-24s %7s %12s %10s %8s" %
          ("call", "count", "sum_ms", "p50_ms", "share"))
    for name, ms in sorted(rows.items(), key=lambda kv: -sum(kv[1])):
        ms.sort()
        print("%-24s %7d %12.1f %10.3f %7.1f%%" %
              (name, len(ms), sum(ms), percentile(ms, 50),
               100.0 * sum(ms) / total if total > 0 else 0.0))
    return 0


def p50(ms):
    """Nearest-rank median of a list of durations, or None when empty."""
    return percentile(sorted(ms), 50) if ms else None


def print_compare(parent_path, change_path):
    parent_spans = load(parent_path)
    change_spans = load(change_path)
    sections = [
        ("call", calls(parent_spans), calls(change_spans),
         lambda key: key),
        ("operation / phase", breakdown(parent_spans),
         breakdown(change_spans), lambda key: "%s %s" % key),
    ]
    if not any(parent or change for _, parent, change, _ in sections):
        print("no call.* or dbms.* spans in %s or %s" %
              (parent_path, change_path), file=sys.stderr)
        return 1

    def cell(value):
        return "%10.3f" % value if value is not None else "%10s" % "-"

    for title, parent, change, label in sections:
        print("%-46s %10s %10s %8s" %
              (title, "parent_p50", "change_p50", "ratio"))
        for key in sorted(set(parent) | set(change)):
            a = p50(parent.get(key, []))
            b = p50(change.get(key, []))
            ratio = ("%8.3f" % (b / a) if a and b is not None
                     else "%8s" % "-")
            print("%-46s %s %s %s" % (label(key), cell(a), cell(b), ratio))
        print()
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("span_file", nargs="+",
                    help="one span file; with --compare, PARENT and CHANGE")
    ap.add_argument("--calls", action="store_true",
                    help="per call.<kind>: count, sum, p50, share of all calls")
    ap.add_argument("--compare", action="store_true",
                    help="p50s of two span files per call and per phase, "
                         "and their ratio")
    args = ap.parse_args()
    if args.compare:
        if len(args.span_file) != 2:
            ap.error("--compare takes two span files: PARENT CHANGE")
        return print_compare(*args.span_file)
    if len(args.span_file) != 1:
        ap.error("give one span file (two only with --compare)")
    args.span_file = args.span_file[0]
    if args.calls:
        return print_calls(args.span_file)
    rows = breakdown(load(args.span_file))
    if not rows:
        print("no dbms.* spans under op.* roots in " + args.span_file,
              file=sys.stderr)
        return 1
    print("%-20s %-24s %7s %10s %10s" %
          ("operation", "phase", "count", "p50_ms", "p90_ms"))
    for (op, phase), ms in sorted(rows.items()):
        ms.sort()
        print("%-20s %-24s %7d %10.3f %10.3f" %
              (op, phase, len(ms), percentile(ms, 50), percentile(ms, 90)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
