#ifndef STATDB_STATS_DESCRIPTIVE_H_
#define STATDB_STATS_DESCRIPTIVE_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace statdb {

/// Sufficient statistics of a numeric column: the one univariate moment
/// state that scans fold (stats/moment_fold.h), merge (Merge) and
/// maintainers step (Add) and unfold (Remove). "Recompute from scratch"
/// and "maintain incrementally" agree exactly on count and to rounding
/// on sum/mean/variance (DESIGN.md §14).
///
/// NaN contract (DESIGN.md §14): min/max consider only non-NaN values —
/// the update rule is `if (x < min) min = x` seeded from +inf/-inf, so a
/// NaN cell never poisons them and the result is independent of where in
/// the column the NaN sits (serial, chunked and SIMD scans agree
/// exactly). A non-empty column whose values are ALL NaN yields
/// min = max = NaN. sum/mean/m2 propagate NaN per IEEE arithmetic.
struct DescriptiveStats {
  uint64_t count = 0;
  double sum = 0;
  double mean = 0;
  double m2 = 0;  // sum of squared deviations from the running mean
  double min = 0;
  double max = 0;

  /// Folds one value in: the Welford step, the maintainers' incremental
  /// update. A fold of Add over a column tracks ComputeDescriptive of it
  /// to rounding (count, min and max exactly).
  void Add(double x) {
    // Seeded by the first value, re-seeded while only NaNs were seen.
    if (count == 0 || std::isnan(min)) min = max = x;
    if (x < min) min = x;
    if (x > max) max = x;
    ++count;
    sum += x;
    double delta = x - mean;
    mean += delta / double(count);
    m2 += delta * (x - mean);
  }

  /// Takes one added value back out: Add's inverse on count/sum/mean/m2
  /// (to rounding; m2 clamps at 0). min/max go stale (extrema need
  /// ExtremumMaintainer). Removing the last value resets the state;
  /// false, changing nothing, when the state is empty.
  [[nodiscard]] bool Remove(double x);

  /// Sample variance (n-1); 0 when count < 2.
  double Variance() const;
  double StdDev() const;

  /// Folds another partial state into this one using the pairwise update
  /// of Chan, Golub & LeVeque — the merge step of a shard-parallel scan.
  /// count/min/max merge exactly; sum/mean/m2 agree with the sequential
  /// one-pass result to FP rounding. Merging an empty state is a no-op,
  /// so empty shards are harmless.
  void Merge(const DescriptiveStats& o);
};

/// The moment fold (stats/moment_fold.h) of `data`. Empty input yields
/// count == 0 and zeroed fields (valid — exploration starts before data
/// is clean).
DescriptiveStats ComputeDescriptive(const std::vector<double>& data);

/// Single-statistic helpers (each scans the data once). Min/Max follow
/// the NaN contract above: NaN values are skipped, and an all-NaN column
/// returns NaN (an empty one is still an error).
Result<double> Min(const std::vector<double>& data);
Result<double> Max(const std::vector<double>& data);
Result<double> Mean(const std::vector<double>& data);
Result<double> Variance(const std::vector<double>& data);
Result<double> StdDev(const std::vector<double>& data);
/// The moment fold's sum, so the registry's sum answers it bit for bit.
double Sum(const std::vector<double>& data);

/// Most frequent value; ties break toward the smaller value.
Result<double> Mode(const std::vector<double>& data);

/// Number of distinct values.
uint64_t CountDistinct(const std::vector<double>& data);

}  // namespace statdb

#endif  // STATDB_STATS_DESCRIPTIVE_H_
