#ifndef STATDB_FLIGHT_CHROME_TRACE_H_
#define STATDB_FLIGHT_CHROME_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "flight/flight_recorder.h"
#include "obs/trace.h"

namespace statdb {

/// Chrome trace-event (catapult) exporter (DESIGN.md §10).
///
/// Renders QueryTrace spans and flight events as a JSON document that
/// chrome://tracing and Perfetto open directly:
///
///   {"traceEvents": [...], "displayTimeUnit": "ms"}
///
/// Layout: one process (pid 1, "statdb"), one lane (tid) per session —
/// lane 0 is the head (non-session) path, lane N is session id N. Each
/// trace becomes an enclosing "X" complete event (the whole operation)
/// with its spans nested inside as further "X" events; flight events
/// become "i" instants on the lane of the trace that stamped them
/// (trace 0 instants land on lane 0).
///
/// Clock alignment: spans carry offsets from their trace's epoch, flight
/// events carry offsets from the recorder's epoch — two different
/// clocks. Each trace is anchored at the earliest flight event carrying
/// its trace_id (its kQueryBegin, in practice); traces with no flight
/// events are laid end-to-end after a running cursor so they stay
/// visible rather than piling up at t=0.
///
/// `trace_id_filter` != 0 restricts the export to that one operation —
/// the shell's `trace <id>` command.
std::string ExportChromeTrace(const std::vector<QueryTrace>& traces,
                              const std::vector<FlightEvent>& events,
                              uint64_t trace_id_filter = 0);

}  // namespace statdb

#endif  // STATDB_FLIGHT_CHROME_TRACE_H_
