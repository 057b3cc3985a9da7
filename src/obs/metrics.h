#ifndef STATDB_OBS_METRICS_H_
#define STATDB_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/sync.h"
#include "obs/json.h"

namespace statdb {

/// statdb::obs — the unified metrics registry (DESIGN.md §10).
///
/// The paper's argument is economic: the Summary Database pays off only
/// when cache hits, incremental applies and single-pass rebuilds dominate
/// full recomputation (§3.2, §4.2–4.3). The registry is the single export
/// point where those signals become one machine-readable document,
/// instead of five stats structs scattered across subsystems.
///
/// Design constraints (they shape the API):
///   - Hot-path bumps are single relaxed atomic RMWs; no locks, no
///     allocation. Callers resolve a Counter*/Gauge*/LatencyHistogram*
///     once (registration takes the registry mutex) and bump through the
///     pointer thereafter. Instrument addresses are stable for the
///     registry's lifetime.
///   - Snapshots (DumpJson) are monotonic-read: taken while writers run
///     they see torn-across-instruments but per-instrument-consistent
///     values; quiesce for exact figures, same rule as BufferPool::stats.

/// Monotonically increasing event count.
class Counter {
 public:
  void Inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Get() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Last-written (or running-max / running-sum) level.
class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  double Get() const { return v_.load(std::memory_order_relaxed); }
  /// Lifts the gauge to `v` if larger (high-water marks, e.g. queue
  /// depth). CAS loop; contention is bounded by the few writers racing
  /// past the same high-water mark.
  void MaxOf(double v) {
    double cur = v_.load(std::memory_order_relaxed);
    while (cur < v &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  /// Accumulates into the gauge (running totals of non-integer
  /// quantities, e.g. milliseconds of task time).
  void Add(double v) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
    }
  }
  void Reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket latency histogram over milliseconds. Buckets are
/// power-of-two microseconds (bucket i covers [2^i, 2^(i+1)) µs, bucket 0
/// additionally absorbs sub-microsecond samples), so Record is a clz plus
/// one relaxed increment — no allocation, no lock, mergeable by bucket.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 40;  // 1 µs .. ~9 min

  void Record(double ms);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double TotalMs() const { return sum_ms_.load(std::memory_order_relaxed); }
  double MaxMs() const { return max_ms_.load(std::memory_order_relaxed); }
  /// Upper edge (ms) of the bucket containing quantile `q` of the
  /// recorded samples — a factor-of-two estimate, which is what a
  /// latency dashboard needs.
  double QuantileUpperBoundMs(double q) const;

  /// Snapshot of one bucket's count.
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Appends {count, total_ms, mean_ms, max_ms, p50_ms, p90_ms, p99_ms}.
  /// Buckets are copied once and count and quantiles all come from that
  /// copy, so a snapshot taken while writers run never reports a
  /// quantile that disagrees with its own count.
  void WriteTo(obs::JsonObject* doc) const;

  void Reset();

 private:
  /// Copies the bucket array; returns the sample count it holds.
  uint64_t CopyBuckets(uint64_t (&out)[kBuckets]) const;

  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_ms_{0.0};
  std::atomic<double> max_ms_{0.0};
};

/// Thread-safe name → instrument registry with a JSON snapshot dump.
///
/// Names are dotted paths ("exec.pool.tasks_executed"); the dump groups
/// instruments by kind, not by path, so the schema stays flat and
/// greppable.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the named instrument. The returned pointer is
  /// stable until the registry is destroyed; cache it and bump lock-free.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  LatencyHistogram* GetHistogram(const std::string& name);

  /// One consistent pass over every instrument, appended to `doc` as
  /// {"counters", "gauges", "histograms"}: one read per counter/gauge,
  /// one bucket-array copy per histogram, under the registration mutex
  /// so no instrument is missed or read twice. DumpMetrics' "registry".
  void WriteTo(obs::JsonObject* doc) const;

  /// WriteTo rendered as one JSON document:
  ///   {"counters": {name: n, ...},
  ///    "gauges": {name: x, ...},
  ///    "histograms": {name: {count, total_ms, mean_ms, max_ms,
  ///                          p50_ms, p90_ms, p99_ms}, ...}}
  std::string DumpJson() const;

  /// Zeroes every instrument (benchmark warm-up boundaries). Instruments
  /// stay registered; cached pointers stay valid.
  void ResetAll();

 private:
  // Reader/writer registration lock: Get* (map mutation) is exclusive;
  // WriteTo/ResetAll only walk the maps (the instruments themselves are
  // atomics), so concurrent snapshots share a reader lock.
  mutable SharedMutex mu_;
  // Instruments are behind unique_ptr so the map can rehash/rebalance
  // without moving them (pointer stability for lock-free writers).
  std::map<std::string, std::unique_ptr<Counter>> counters_
      STATDB_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      STATDB_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_
      STATDB_GUARDED_BY(mu_);
};

}  // namespace statdb

#endif  // STATDB_OBS_METRICS_H_
