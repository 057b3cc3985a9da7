#ifndef STATDB_OBS_SLO_H_
#define STATDB_OBS_SLO_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>

#include "common/sync.h"
#include "obs/metrics.h"

namespace statdb {

/// Latency targets for one query class. A sample over target_p50_ms
/// consumes headroom, over target_p99_ms consumes error budget; an
/// error-status operation always burns budget regardless of latency.
struct SloTarget {
  double p50_ms = 5.0;
  double p95_ms = 50.0;
  double p99_ms = 200.0;
  /// Fraction of operations allowed to miss the p99 target (or error)
  /// before the budget reads as fully burned. 0.01 = the classic 99%.
  double error_budget = 0.01;
};

/// One query class's SLO (DESIGN.md §10): its targets plus the registry
/// instruments "slo.<class>.{total,over_p50,over_p95,over_p99,errors}"
/// (counters) and "slo.<class>.ms" (histogram). The counts live only in
/// the registry, so DumpMetrics and the timeseries carry them too.
class SloClass {
 public:
  SloClass(MetricsRegistry* registry, const std::string& name);

  /// Relaxed atomics only: no lock and no lookup.
  void Record(double ms, bool is_error);
  void SetTarget(const SloTarget& target);
  SloTarget target() const;
  /// (over_p99 + errors) / (error_budget * total): 1.0 = budget
  /// exhausted, > 1.0 = the class is out of SLO.
  double BudgetBurn() const;
  /// {class, total, targets, observed, breaches, error_budget}.
  std::string ToJson() const;

 private:
  const std::string name_;
  std::atomic<double> p50_ms_;
  std::atomic<double> p95_ms_;
  std::atomic<double> p99_ms_;
  std::atomic<double> error_budget_;
  Counter* total_;
  Counter* over_p50_;
  Counter* over_p95_;
  Counter* over_p99_;
  Counter* errors_;
  LatencyHistogram* ms_;
};

/// Per-query-class tail-latency SLO tracker (DESIGN.md §10). The owner
/// resolves each class once and records through the returned handle.
class SloTracker {
 public:
  explicit SloTracker(MetricsRegistry* registry) : registry_(registry) {}

  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  /// Finds or registers `query_class`; the handle is stable for the
  /// tracker's lifetime. New classes start at DefaultTarget().
  SloClass* GetClass(const std::string& query_class);

  static SloTarget DefaultTarget() { return SloTarget{}; }

  /// {"slo": {"classes": [ {class, targets, observed, breaches,
  ///  error_budget}, ... ]}}
  std::string DumpJson() const;

 private:
  MetricsRegistry* registry_;
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<SloClass>> classes_
      STATDB_GUARDED_BY(mu_);
};

}  // namespace statdb

#endif  // STATDB_OBS_SLO_H_
