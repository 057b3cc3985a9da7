#ifndef STATDB_STATS_PARTIAL_STATS_H_
#define STATDB_STATS_PARTIAL_STATS_H_

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "stats/descriptive.h"
#include "stats/histogram.h"
#include "stats/regression.h"

namespace statdb {

/// The partial states beside DescriptiveStats, each with Add, Merge,
/// Remove and finishers, shared by scans at every worker count and the
/// maintainers (DESIGN.md §14).

/// Sufficient statistics of a paired numeric sample: counts, means,
/// centered second moments and the co-moment sum((x-mx)(y-my)). Enough to
/// finish covariance, Pearson r and a simple linear regression without a
/// second pass, and mergeable across shards via the pairwise update of
/// Chan/Golub/LeVeque (the same algebra DescriptiveStats::Merge uses).
struct ComomentStats {
  uint64_t n = 0;
  double mean_x = 0;
  double mean_y = 0;
  double m2x = 0;  // sum (x - mean_x)^2
  double m2y = 0;  // sum (y - mean_y)^2
  double cxy = 0;  // sum (x - mean_x)(y - mean_y)

  /// Folds one (x, y) pair into the running state: the maintainers'
  /// incremental step, which tracks the moment fold to rounding.
  void Add(double x, double y);

  /// Add's inverse (to rounding; m2x/m2y clamp at 0). Removing the last
  /// pair resets the state; false, changing nothing, when empty.
  [[nodiscard]] bool Remove(double x, double y);

  /// Folds another shard's state into this one (commutative up to FP
  /// rounding; exact on counts).
  void Merge(const ComomentStats& o);

  /// Finishers, mirroring the serial functions' domain errors so the
  /// parallel path fails exactly where the serial path would.
  Result<double> Covariance() const;  // n-1 normalization
  Result<double> PearsonR() const;
  Result<LinearFit> Fit() const;  // y ~ x
};

/// The moment fold (stats/moment_fold.h) of the pairs of two columns,
/// over the shorter one's length.
ComomentStats ComputeComoments(const std::vector<double>& x,
                               const std::vector<double>& y);

/// Per-shard value-frequency map for mode / distinct-count. Hash-keyed on
/// the exact double bit pattern (column data; no NaNs by construction),
/// merged by adding counts at the barrier.
///
/// Internally hash-partitioned into kShards sub-maps: any given value
/// lands in the same shard of every ValueCounts, so two states merge
/// shard-by-shard with no cross-shard traffic. That lets the scan
/// barrier parallelize the merge itself (one task per shard) — on a
/// mostly-distinct column the merge is as expensive as the scan, and a
/// single-map merge would serialize it (Amdahl) no matter how many
/// workers scanned.
struct ValueCounts {
  static constexpr size_t kShards = 16;
  // statdb-lint: allow(double-keyed-map) — exact-value frequency table
  // for mode/distinct; keys are the column's own doubles by design.
  std::array<std::unordered_map<double, uint64_t>, kShards> shards;

  static size_t ShardOf(double x) {
    return std::hash<double>{}(x) & (kShards - 1);
  }

  void Add(double x) { ++shards[ShardOf(x)][x]; }
  /// Takes one x back out; false, changing nothing, when x is absent.
  [[nodiscard]] bool Remove(double x);
  /// Compressed-domain fold: an RLE run of value x and length k lands as
  /// one O(1) bucket bump — bit-identical to k Add(x) calls.
  void AddRun(double x, uint64_t k) { shards[ShardOf(x)][x] += k; }
  /// Pre-sizes every shard for ~n total values.
  void Reserve(size_t n);
  void Merge(const ValueCounts& o);
  /// Folds only shard s of o into shard s of this — safe to call for
  /// distinct s from distinct threads concurrently.
  void MergeShard(const ValueCounts& o, size_t s);

  uint64_t Distinct() const;

  /// Most frequent value, ties toward the smaller value — the same
  /// tie-break the serial Mode() applies, so the merged answer is
  /// bit-identical to the sequential one. Errors on an empty state.
  Result<double> ModeValue() const;

  /// Builds the equi-width histogram the serial BuildHistogram would
  /// produce, by bucketing each distinct value once with its count.
  /// Bucket assignment is per-value, so the counts are exactly the
  /// sequential ones.
  Result<Histogram> ToHistogram(size_t buckets, double lo, double hi) const;
};

}  // namespace statdb

#endif  // STATDB_STATS_PARTIAL_STATS_H_
