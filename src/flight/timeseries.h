#ifndef STATDB_FLIGHT_TIMESERIES_H_
#define STATDB_FLIGHT_TIMESERIES_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/sync.h"

namespace statdb {

/// statdb::flight — periodic metric snapshots (DESIGN.md §10).
///
/// DumpMetrics() is a point-in-time photograph; regressions and workload
/// shifts live in the *differences* between photographs. A point is the
/// flattened DumpMetrics walk (obs::JsonObject::Flatten: dotted paths such
/// as "views.v.summary_db.lookups"), so the timeseries and the metrics
/// document never disagree on what a stat is. The window keeps a bounded
/// run of points, emits consecutive deltas with derived rates, and
/// renders the newest point in Prometheus text exposition format.
///
/// Rates sum every key ending in the named leaf (absent keys count 0):
///   *.summary_db.hits / *.summary_db.lookups    → summary_hit_rate
///   the scan keys per second, in MB             → scan_mb_per_s
///   durability.wal_bytes_appended /
///   durability.wal_records_appended             → wal_bytes_per_commit
struct StatPoint {
  double t_ms = 0;    // recorder-epoch milliseconds of the snapshot
  uint64_t seq = 0;   // mutation count (or tick index) at the snapshot
  std::map<std::string, double> values;
};

class MetricsTimeseries {
 public:
  static constexpr size_t kDefaultCapacity = 256;

  /// `scan_keys` name the byte counters that count as scan reads (the
  /// data devices' "devices.<name>.io.bytes_read", not the WAL's).
  explicit MetricsTimeseries(size_t capacity = kDefaultCapacity,
                             std::vector<std::string> scan_keys = {})
      : capacity_(capacity == 0 ? 1 : capacity),
        scan_keys_(std::move(scan_keys)) {}

  MetricsTimeseries(const MetricsTimeseries&) = delete;
  MetricsTimeseries& operator=(const MetricsTimeseries&) = delete;

  /// Appends a snapshot; the oldest point falls off past capacity.
  void Push(StatPoint point);

  size_t size() const;
  size_t capacity() const { return capacity_; }
  uint64_t total_pushed() const;

  /// {"timeseries": {"capacity", "count", "dropped",
  ///                 "base": {t_ms, seq, values},
  ///                 "deltas": [{dt_ms, from_seq, to_seq,
  ///                             delta: {key: Δvalue},
  ///                             rates: {summary_hit_rate, ...}}]}}
  /// Deltas are between consecutive surviving points; counters that went
  /// backwards (ResetAll between points) clamp to 0.
  std::string DumpJson() const;

  /// Prometheus text exposition of the newest point:
  ///   # TYPE statdb_<key> gauge
  ///   statdb_<key> <value>
  /// Keys are sanitized (non-alphanumerics → '_').
  std::string ExposeText() const;

 private:
  const size_t capacity_;
  const std::vector<std::string> scan_keys_;
  mutable Mutex mu_;
  std::deque<StatPoint> points_ STATDB_GUARDED_BY(mu_);
  uint64_t total_pushed_ STATDB_GUARDED_BY(mu_) = 0;
};

}  // namespace statdb

#endif  // STATDB_FLIGHT_TIMESERIES_H_
