#!/usr/bin/env python3
"""Validates an observability JSON document read from stdin.

Tiny structural schema check used by CI's metrics smoke step. The kind of
document is selected with --kind:

  metrics     DumpMetrics()            — views/devices/registry (default)
  flight      flight().DumpJson()      — the black box: event window plus
                                         slow traces + joined events
  timeseries  timeseries().DumpJson()  — snapshot deltas + derived rates
  workload    workload_profiler().ReportJson() — the §4.3 heatmaps
  slo         slo().DumpJson()         — per-query-class targets/burn
  chrometrace DumpChromeTrace()        — Chrome trace-event (catapult) JSON

Each document must parse as one JSON object and carry the signals
DESIGN.md §10 promises. Exits non-zero with a message on the first
violation.
"""

import argparse
import json
import sys


def fail(msg: str) -> None:
    print(f"metrics schema check FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def require(cond: bool, msg: str) -> None:
    if not cond:
        fail(msg)


def check_metrics(doc: dict) -> str:
    for section in ("views", "devices", "registry"):
        require(section in doc, f"missing top-level section '{section}'")
        require(isinstance(doc[section], dict),
                f"section '{section}' is not an object")

    require(len(doc["views"]) >= 1, "no views in 'views'")
    for name, view in doc["views"].items():
        for part in ("summary_db", "traffic"):
            require(part in view, f"view '{name}' missing '{part}'")
        cache = view["summary_db"]
        for key in ("lookups", "hits", "stale_hits", "served_stale",
                    "misses", "inserts", "invalidated", "hit_rate",
                    "served_rate", "entries"):
            require(key in cache, f"view '{name}' summary_db missing '{key}'")
        require(cache["served_rate"] >= cache["hit_rate"],
                f"view '{name}': served_rate < hit_rate")
        traffic = view["traffic"]
        for key in ("queries", "cache_hits", "stale_hits", "inferred",
                    "computed", "updates", "maintainer_applies",
                    "maintainer_rebuilds"):
            require(key in traffic, f"view '{name}' traffic missing '{key}'")

    require(len(doc["devices"]) >= 2, "expected at least tape + disk devices")
    for name, dev in doc["devices"].items():
        require("io" in dev, f"device '{name}' missing 'io'")
        for key in ("block_reads", "block_writes", "seeks", "simulated_ms"):
            require(key in dev["io"], f"device '{name}' io missing '{key}'")
        require("buffer_pool" in dev, f"device '{name}' missing 'buffer_pool'")
        for key in ("hits", "misses", "evictions", "flushes", "hit_rate"):
            require(key in dev["buffer_pool"],
                    f"device '{name}' buffer_pool missing '{key}'")

    reg = doc["registry"]
    for kind in ("counters", "gauges", "histograms"):
        require(kind in reg, f"registry missing '{kind}'")
    require("dbms.query_ms" in reg["histograms"],
            "registry missing dbms.query_ms histogram")
    hist = reg["histograms"]["dbms.query_ms"]
    for key in ("count", "total_ms", "mean_ms", "max_ms", "p50_ms",
                "p90_ms", "p99_ms"):
        require(key in hist, f"dbms.query_ms histogram missing '{key}'")
    require(hist["count"] >= 1, "dbms.query_ms recorded no queries")
    for counter in ("dbms.answers.computed", "dbms.answers.cache_hit",
                    "exec.pool.tasks_executed", "dbms.order_state.builds",
                    "dbms.order_state.merges",
                    "dbms.order_state.evictions"):
        require(counter in reg["counters"],
                f"registry missing counter '{counter}'")
    require("dbms.order_state.bytes" in reg["gauges"],
            "registry missing gauge 'dbms.order_state.bytes'")

    return (f"{len(doc['views'])} view(s), {len(doc['devices'])} device(s), "
            f"{len(reg['counters'])} counters, "
            f"{len(reg['histograms'])} histograms")


KNOWN_EVENT_KINDS = {
    "query_begin", "query_end", "cache_hit", "cache_miss", "stale_serve",
    "maintainer_arm", "maintainer_fire", "wal_commit", "fault_injected",
    "io_retry", "recovery_step", "session_open", "session_close",
    "degraded", "data_loss", "update", "rollback", "policy_switch",
    "delta_flush",
}

# Per-event keys shared by the flight window and the slow traces' joined
# events ("trace" is the causal join key).
EVENT_KEYS = ("seq", "t_ms", "kind", "label", "a", "b", "x", "trace")

KNOWN_OUTCOMES = {"unknown", "cache_hit", "stale_cache_hit", "inferred",
                  "computed", "error"}


def check_event(ev: dict, where: str) -> None:
    for key in EVENT_KEYS:
        require(key in ev, f"{where} missing '{key}'")
    require(ev["kind"] in KNOWN_EVENT_KINDS,
            f"{where} has unknown kind '{ev['kind']}'")


def check_flight(doc: dict) -> str:
    require("flight" in doc, "missing top-level 'flight' object")
    flight = doc["flight"]
    require(isinstance(flight, dict), "'flight' is not an object")
    for key in ("reason", "enabled", "capacity", "recorded", "sampled_out",
                "sample_every", "auto_dumps", "events", "slow_traces"):
        require(key in flight, f"flight missing '{key}'")
    events = flight["events"]
    require(isinstance(events, list), "'events' is not an array")
    require(len(events) <= flight["capacity"],
            "more events than ring capacity")
    last_seq = -1
    for i, ev in enumerate(events):
        check_event(ev, f"event [{i}]")
        require(ev["seq"] > last_seq,
                f"event [{i}] seq {ev['seq']} not ascending")
        last_seq = ev["seq"]
    window = {ev["seq"] for ev in events}
    slow = check_slow_traces(flight["slow_traces"], window)
    return (f"reason '{flight['reason']}', {len(events)} event(s) of "
            f"{flight['recorded']} recorded; {slow}")


def check_slow_traces(log: dict, window: set) -> str:
    require(isinstance(log, dict), "'slow_traces' is not an object")
    for key in ("threshold_ms", "capacity", "captured", "dropped",
                "entries"):
        require(key in log, f"slow_traces missing '{key}'")
    entries = log["entries"]
    require(isinstance(entries, list), "'entries' is not an array")
    require(len(entries) <= log["capacity"],
            "more slow traces than the log's capacity")
    require(log["captured"] >= len(entries) + log["dropped"],
            "captured < retained + dropped")
    for i, entry in enumerate(entries):
        for key in ("trace_id", "wall_ms", "outcome", "trace",
                    "flight_events"):
            require(key in entry, f"slow trace [{i}] missing '{key}'")
        require(entry["outcome"] in KNOWN_OUTCOMES,
                f"slow trace [{i}] has unknown outcome '{entry['outcome']}'")
        trace = entry["trace"]
        for key in ("trace_id", "session_id", "query_seq", "operation",
                    "outcome", "total_ms", "spans"):
            require(key in trace, f"slow trace [{i}] trace missing '{key}'")
        require(trace["trace_id"] == entry["trace_id"],
                f"slow trace [{i}]: trace_id disagrees with its trace")
        for j, span in enumerate(trace["spans"]):
            for key in ("span", "start_ms", "wall_ms", "rows", "pages"):
                require(key in span,
                        f"slow trace [{i}] span [{j}] missing '{key}'")
        for j, ev in enumerate(entry["flight_events"]):
            check_event(ev, f"slow trace [{i}] event [{j}]")
            # The join invariant: every joined event carries the entry's
            # trace_id and comes from the same dump's event window.
            require(ev["trace"] == entry["trace_id"],
                    f"slow trace [{i}] event [{j}] trace {ev['trace']} != "
                    f"entry trace_id {entry['trace_id']}")
            require(ev["seq"] in window,
                    f"slow trace [{i}] event [{j}] seq {ev['seq']} is not "
                    "in the dump's event window")
    return f"{len(entries)} slow trace(s) of {log['captured']} captured"


def check_timeseries(doc: dict) -> str:
    require("timeseries" in doc, "missing top-level 'timeseries' object")
    ts = doc["timeseries"]
    require(isinstance(ts, dict), "'timeseries' is not an object")
    for key in ("capacity", "count", "dropped", "deltas"):
        require(key in ts, f"timeseries missing '{key}'")
    require(ts["count"] >= 1, "timeseries holds no snapshots")
    require("base" in ts, "non-empty timeseries missing 'base'")
    for key in ("t_ms", "seq", "values"):
        require(key in ts["base"], f"base point missing '{key}'")
    require(isinstance(ts["deltas"], list), "'deltas' is not an array")
    require(len(ts["deltas"]) == ts["count"] - 1,
            f"{ts['count']} points should yield {ts['count'] - 1} deltas, "
            f"got {len(ts['deltas'])}")
    for i, d in enumerate(ts["deltas"]):
        for key in ("dt_ms", "from_seq", "to_seq", "delta", "rates"):
            require(key in d, f"delta [{i}] missing '{key}'")
        require(d["to_seq"] >= d["from_seq"],
                f"delta [{i}] runs backwards")
        for key, v in d["delta"].items():
            require(v >= 0, f"delta [{i}] '{key}' is negative ({v}); "
                    "counter deltas clamp to 0")
    return f"{ts['count']} point(s), {len(ts['deltas'])} delta(s)"


ADVICE = {"cache-only", "maintain", "invalidate", "borderline"}


def check_workload(doc: dict) -> str:
    require("workload" in doc, "missing top-level 'workload' object")
    wl = doc["workload"]
    require(isinstance(wl, dict), "'workload' is not an object")
    for key in ("total_queries", "total_updates", "functions", "attributes"):
        require(key in wl, f"workload missing '{key}'")
    require(wl["total_queries"] >= 1, "profiler saw no queries")
    require(len(wl["functions"]) >= 1, "no function heatmap cells")
    require(len(wl["attributes"]) >= 1, "no attribute heatmap rows")
    cell_queries = 0
    for key, cell in wl["functions"].items():
        require("(" in key and key.endswith(")"),
                f"function key '{key}' is not 'view.fn(attr)'-shaped")
        for field in ("queries", "computed", "cache_hits", "stale_serves",
                      "inferred", "failed", "total_ms"):
            require(field in cell, f"function '{key}' missing '{field}'")
        outcomes = (cell["computed"] + cell["cache_hits"] +
                    cell["stale_serves"] + cell["inferred"] + cell["failed"])
        require(outcomes == cell["queries"],
                f"function '{key}': outcomes {outcomes} != "
                f"queries {cell['queries']}")
        cell_queries += cell["queries"]
    require(cell_queries == wl["total_queries"],
            f"function cells sum to {cell_queries}, "
            f"total_queries is {wl['total_queries']}")
    for key, row in wl["attributes"].items():
        for field in ("accesses", "updates", "cells_updated", "query_ms",
                      "advice"):
            require(field in row, f"attribute '{key}' missing '{field}'")
        require(row["advice"] in ADVICE,
                f"attribute '{key}' has unknown advice '{row['advice']}'")
    return (f"{wl['total_queries']} queries over "
            f"{len(wl['functions'])} function cell(s), "
            f"{len(wl['attributes'])} attribute row(s)")


def check_slo(doc: dict) -> str:
    require("slo" in doc, "missing top-level 'slo' object")
    slo = doc["slo"]
    require(isinstance(slo, dict), "'slo' is not an object")
    require("classes" in slo, "slo missing 'classes'")
    classes = slo["classes"]
    require(isinstance(classes, list), "'classes' is not an array")
    for i, c in enumerate(classes):
        for key in ("class", "total", "targets", "observed", "breaches",
                    "error_budget"):
            require(key in c, f"class [{i}] missing '{key}'")
        for part in ("targets", "observed"):
            for key in ("p50_ms", "p95_ms", "p99_ms"):
                require(key in c[part],
                        f"class '{c['class']}' {part} missing '{key}'")
        for key in ("over_p50", "over_p95", "over_p99"):
            require(key in c["breaches"],
                    f"class '{c['class']}' breaches missing '{key}'")
        # A sample over the p99 target is over p95 and p50 too (targets
        # are ordered), so the breach counters must be monotone.
        b = c["breaches"]
        require(b["over_p50"] >= b["over_p95"] >= b["over_p99"],
                f"class '{c['class']}': breach counters not monotone")
        require(b["over_p50"] + c["error_budget"]["errors"] <= c["total"],
                f"class '{c['class']}': more breaches+errors than samples")
        for key in ("budget_pct", "burn", "errors"):
            require(key in c["error_budget"],
                    f"class '{c['class']}' error_budget missing '{key}'")
        require(c["error_budget"]["burn"] >= 0,
                f"class '{c['class']}': negative budget burn")
    return f"{len(classes)} query class(es)"


def check_chrometrace(doc: dict) -> str:
    require("traceEvents" in doc, "missing 'traceEvents'")
    events = doc["traceEvents"]
    require(isinstance(events, list), "'traceEvents' is not an array")
    require(doc.get("displayTimeUnit") == "ms",
            "displayTimeUnit must be 'ms'")
    phases = {"X": 0, "i": 0, "M": 0}
    for i, ev in enumerate(events):
        for key in ("name", "ph", "pid"):
            require(key in ev, f"traceEvent [{i}] missing '{key}'")
        ph = ev["ph"]
        require(ph in phases, f"traceEvent [{i}] unknown phase '{ph}'")
        phases[ph] += 1
        if ph == "X":
            for key in ("ts", "dur", "tid", "cat"):
                require(key in ev, f"traceEvent [{i}] 'X' missing '{key}'")
            require(ev["dur"] >= 0, f"traceEvent [{i}] negative duration")
        elif ph == "i":
            for key in ("ts", "tid", "s"):
                require(key in ev, f"traceEvent [{i}] 'i' missing '{key}'")
        else:  # metadata
            require("args" in ev, f"traceEvent [{i}] 'M' missing 'args'")
    require(phases["M"] >= 1, "no metadata (process/thread name) events")
    return (f"{phases['X']} span(s), {phases['i']} instant(s), "
            f"{phases['M']} metadata record(s)")


CHECKERS = {
    "metrics": check_metrics,
    "flight": check_flight,
    "timeseries": check_timeseries,
    "workload": check_workload,
    "slo": check_slo,
    "chrometrace": check_chrometrace,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kind", choices=sorted(CHECKERS),
                        default="metrics")
    args = parser.parse_args()

    text = sys.stdin.read().strip()
    require(bool(text), "empty input")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        fail(f"not valid JSON: {e}")
    require(isinstance(doc, dict), "top level is not an object")

    summary = CHECKERS[args.kind](doc)
    print(f"{args.kind} schema OK: {summary}")


if __name__ == "__main__":
    main()
