#ifndef STATDB_FLIGHT_PROFILER_H_
#define STATDB_FLIGHT_PROFILER_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/sync.h"
#include "obs/trace.h"

namespace statdb {

/// statdb::flight — the workload profiler (DESIGN.md §10).
///
/// The paper's §4.3 maintain-vs-invalidate choice is a per-attribute
/// economic decision: maintain the cached statistic incrementally when
/// queries on the attribute outnumber updates, invalidate (recompute on
/// demand) when updates dominate, do nothing special when the attribute
/// is write-only. The Summary Database exists because "the same functions
/// are applied to the same attributes repeatedly" — but until now nothing
/// measured *which* functions and *which* attributes. The profiler is
/// that measurement: two heatmaps (per-(function, attribute) and
/// per-attribute) folded from the query/update paths, plus the derived
/// §4.3 advice per attribute.
///
/// The profiler is deliberately exact, not sampled: it is fed once per
/// query/update (not per row), with the precise view/function/attribute
/// strings, so its ReportJson() can be trusted as the decision input
/// rather than being a fuzzy mirror of truncated flight labels.
class WorkloadProfiler {
 public:
  /// Per-(function, attribute) heatmap cell.
  struct FunctionCell {
    uint64_t queries = 0;
    uint64_t computed = 0;
    uint64_t cache_hits = 0;
    uint64_t stale_serves = 0;
    uint64_t inferred = 0;
    uint64_t failed = 0;  // refused (staleness gate, degraded) or errored
    double total_ms = 0;
  };

  /// Per-attribute heatmap row — the §4.3 decision input.
  struct AttributeRow {
    uint64_t accesses = 0;      // queries naming the attribute
    uint64_t updates = 0;       // Update() calls touching it
    uint64_t cells_updated = 0; // total cells those updates changed
    double query_ms = 0;
  };

  void NoteQuery(const std::string& view, const std::string& function,
                 const std::string& attribute, TraceOutcome outcome,
                 double wall_ms);
  void NoteUpdate(const std::string& view, const std::string& attribute,
                  uint64_t cells);

  /// The heatmap row for one "view.attr" (zeros when the attribute was
  /// never touched) — the delta policy controller's decision input.
  AttributeRow AttributeStats(const std::string& view,
                              const std::string& attribute) const;

  uint64_t total_queries() const;
  uint64_t total_updates() const;

  /// §4.3 advice for one access/update ratio. Exposed so tests and the
  /// report renderers share one decision rule:
  ///   updates == 0            → "cache-only"  (nothing ever invalidates)
  ///   accesses/updates >= 4   → "maintain"    (reads dominate; keep the
  ///                                            summary incrementally)
  ///   accesses/updates < 1    → "invalidate"  (writes dominate; recompute
  ///                                            on demand)
  ///   otherwise               → "borderline"
  static const char* Advice(uint64_t accesses, uint64_t updates);

  /// {"workload": {"total_queries", "total_updates",
  ///               "functions": {"view.fn(attr)": {...cell...}},
  ///               "attributes": {"view.attr": {...row, advice}}}}
  std::string ReportJson() const;

  /// The statdb-top rendering: attributes sorted by traffic, with the
  /// hottest `top_n` rows of each map.
  std::string ReportText(size_t top_n = 10) const;

  void Reset();

 private:
  mutable Mutex mu_;
  // "view.fn(attr)" / "view.attr" heatmaps.
  std::map<std::string, FunctionCell> functions_ STATDB_GUARDED_BY(mu_);
  std::map<std::string, AttributeRow> attributes_ STATDB_GUARDED_BY(mu_);
  uint64_t total_queries_ STATDB_GUARDED_BY(mu_) = 0;
  uint64_t total_updates_ STATDB_GUARDED_BY(mu_) = 0;
};

}  // namespace statdb

#endif  // STATDB_FLIGHT_PROFILER_H_
