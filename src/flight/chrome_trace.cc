#include "flight/chrome_trace.h"

#include <algorithm>
#include <map>
#include <set>

#include "obs/json.h"

namespace statdb {

namespace {

/// One complete ("X") event. ts/dur are in microseconds per the format.
std::string CompleteEvent(const std::string& name, const std::string& cat,
                          double ts_ms, double dur_ms, uint64_t tid,
                          const std::string& args_json) {
  return obs::JsonObject()
      .Str("name", name)
      .Str("cat", cat)
      .Str("ph", "X")
      .Num("ts", ts_ms * 1000.0)
      .Num("dur", dur_ms * 1000.0)
      .Int("pid", 1)
      .Int("tid", tid)
      .Raw("args", args_json)
      .Build();
}

std::string LaneName(uint64_t session_id) {
  return session_id == 0 ? std::string("head")
                         : "session " + std::to_string(session_id);
}

}  // namespace

std::string ExportChromeTrace(const std::vector<QueryTrace>& traces,
                              const std::vector<FlightEvent>& events,
                              uint64_t trace_id_filter) {
  // Pass 1: per-trace anchors (earliest flight event stamp) and lanes.
  std::map<uint64_t, double> anchor_ms;
  std::map<uint64_t, uint64_t> lane_of_trace;
  for (const FlightEvent& ev : events) {
    if (ev.trace == 0) continue;
    auto it = anchor_ms.find(ev.trace);
    if (it == anchor_ms.end() || ev.t_ms < it->second) {
      anchor_ms[ev.trace] = ev.t_ms;
    }
  }
  for (const QueryTrace& t : traces) {
    if (t.trace_id() != 0) lane_of_trace[t.trace_id()] = t.session_id();
  }
  // Unanchored traces go end-to-end after everything that is anchored.
  double cursor = 0;
  for (const auto& [id, ms] : anchor_ms) cursor = std::max(cursor, ms);
  for (const FlightEvent& ev : events) cursor = std::max(cursor, ev.t_ms);

  std::vector<std::string> rows;
  std::set<uint64_t> lanes;

  for (const QueryTrace& t : traces) {
    if (trace_id_filter != 0 && t.trace_id() != trace_id_filter) continue;
    double anchor;
    auto it = anchor_ms.find(t.trace_id());
    if (t.trace_id() != 0 && it != anchor_ms.end()) {
      anchor = it->second;
    } else {
      anchor = cursor + 1.0;
      cursor = anchor + std::max(t.total_ms(), 0.001);
    }
    uint64_t lane = t.session_id();
    lanes.insert(lane);
    std::string op_name =
        t.operation() + " " + t.function() + "(" + t.attribute() + ")";
    rows.push_back(CompleteEvent(
        op_name, "operation", anchor, std::max(t.total_ms(), 0.001), lane,
        obs::JsonObject()
            .Int("trace_id", t.trace_id())
            .Str("view", t.view())
            .Str("outcome", TraceOutcomeName(t.outcome()))
            .Build()));
    for (size_t i = 0; i < t.size(); ++i) {
      const TraceSpan& s = t.span(i);
      std::string name = SpanKindName(s.kind);
      if (s.detail >= 0) name += "[" + std::to_string(s.detail) + "]";
      rows.push_back(CompleteEvent(
          name, "span", anchor + s.start_ms, std::max(s.wall_ms, 0.001),
          lane,
          obs::JsonObject()
              .Int("trace_id", t.trace_id())
              .Int("rows", s.rows)
              .Int("pages", s.pages)
              .Build()));
    }
  }

  for (const FlightEvent& ev : events) {
    if (trace_id_filter != 0 && ev.trace != trace_id_filter) continue;
    uint64_t lane = 0;
    auto it = lane_of_trace.find(ev.trace);
    if (it != lane_of_trace.end()) lane = it->second;
    lanes.insert(lane);
    rows.push_back(obs::JsonObject()
                       .Str("name", FlightEventKindName(ev.kind))
                       .Str("cat", "flight")
                       .Str("ph", "i")
                       .Str("s", "t")  // thread-scoped instant
                       .Num("ts", ev.t_ms * 1000.0)
                       .Int("pid", 1)
                       .Int("tid", lane)
                       .Raw("args", FlightEventJson(ev))
                       .Build());
  }

  // Lane metadata last: harmless to viewers, and keeps the event rows
  // (which schema checks index) at the front.
  rows.push_back(obs::JsonObject()
                     .Str("name", "process_name")
                     .Str("ph", "M")
                     .Int("pid", 1)
                     .Open("args")
                     .Str("name", "statdb")
                     .Close()
                     .Build());
  for (uint64_t lane : lanes) {
    rows.push_back(obs::JsonObject()
                       .Str("name", "thread_name")
                       .Str("ph", "M")
                       .Int("pid", 1)
                       .Int("tid", lane)
                       .Open("args")
                       .Str("name", LaneName(lane))
                       .Close()
                       .Build());
  }

  return obs::JsonObject()
      .Raw("traceEvents", obs::JsonArray(rows))
      .Str("displayTimeUnit", "ms")
      .Build();
}

}  // namespace statdb
