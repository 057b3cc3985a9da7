#ifndef STATDB_STATS_ORDER_STATE_H_
#define STATDB_STATS_ORDER_STATE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "stats/descriptive.h"
#include "stats/histogram.h"

namespace statdb {

/// The order state of one numeric column: the holistic family's state
/// (DESIGN.md §14). The paper keeps ordered state around the median so
/// order statistics need not be recomputed (§4.2); this keeps the whole
/// order. It is built from one gather of the column and holds
///   - the column's non-NaN values in ascending order,
///   - its NaN count,
///   - when known, the row-order moment fold of the column (the
///     DescriptiveStats the one moment fold, stats/moment_fold.h, gives
///     over the gather), which outside_k_sigma reads.
/// Every holistic answer is then a rank lookup or a binary search.
///
/// The values are ordered by their bits' total order, which refines `<`:
/// -0 sorts before +0. So a state is one exact sequence, and a merged
/// state equals a fresh build bit for bit.
///
/// Changed cells queue (Queue) and fold in on the next Merge, in one
/// pass over the values: O(n + k log k) for k queued cells.
class OrderState {
 public:
  /// Largest queue a state keeps, as a fraction of its cells: a bigger
  /// change costs less to rebuild than to merge.
  static constexpr double kMaxQueuedFraction = 0.25;

  OrderState() = default;

  /// The state of a gathered column: its non-missing cells, in row order.
  /// Computes the row-order moments with ComputeDescriptive (the one
  /// moment fold).
  static OrderState Build(const std::vector<double>& column);

  /// The non-NaN values, ascending. Queued changes are not in it.
  const std::vector<double>& sorted() const { return sorted_; }
  uint64_t nan_count() const { return nan_count_; }
  /// Cells of the gather the state stands for: values plus NaNs.
  uint64_t size() const { return sorted_.size() + nan_count_; }

  /// The row-order moments, or nullopt once a change cleared them.
  const std::optional<DescriptiveStats>& moments() const { return moments_; }
  void set_moments(const DescriptiveStats& m) { moments_ = m; }
  /// Row order changed (a reorganize) or a cell did: the moments, whose
  /// sums follow row order, no longer hold.
  void ClearMoments() { moments_.reset(); }

  /// Whether `cells` more queued changes stay within kMaxQueuedFraction.
  bool CanQueue(size_t cells) const;
  /// Queues one changed cell: `old_value` leaves the column and
  /// `new_value` joins it (nullopt = missing). Clears the moments.
  void Queue(std::optional<double> old_value, std::optional<double> new_value);
  /// Changed cells queued since the last Merge.
  size_t queued() const { return queued_cells_; }
  /// Folds the queue into the values. False, leaving the state unusable,
  /// when a queued removal is not in it: the caller drops the state.
  [[nodiscard]] bool Merge();

  /// Heap bytes the state holds, queue included.
  size_t bytes() const;

  // --- finishes: the answers of the holistic functions -------------------
  // Each equals the stats/ function over the gathered column (order.h,
  // histogram.h, outliers.h), errors included; DESIGN.md §14 has the
  // contract. They read only, so concurrent finishes are safe.

  /// R type-7 quantiles, as Quantiles().
  Result<std::vector<double>> Quantiles(const std::vector<double>& ps) const;
  /// The mean of the ascending slice [lower_bound(b0), upper_bound(b1)),
  /// b0 and b1 the lo and hi quantiles, summed in ascending order.
  Result<double> TrimmedMean(double lo, double hi) const;
  /// BuildHistogramAuto: edges from the extremes, and each bucket's count
  /// the length of its slice, found by partition_point on BucketOf.
  Result<Histogram> AutoHistogram(size_t buckets) const;
  /// CountOutsideKSigma from the row-order moments (FAILED_PRECONDITION
  /// without them) and two partition_points on |x - mean| > k * sd.
  Result<uint64_t> CountOutsideKSigma(double k) const;

 private:
  std::vector<double> sorted_;
  uint64_t nan_count_ = 0;
  std::optional<DescriptiveStats> moments_;
  // The queue: the bit-order keys of values leaving and joining; NaNs
  // only as counts.
  std::vector<uint64_t> removed_;
  std::vector<uint64_t> added_;
  uint64_t nan_removed_ = 0;
  uint64_t nan_added_ = 0;
  size_t queued_cells_ = 0;
};

/// Sorts `values` (no NaN) ascending by the total order OrderState uses:
/// an LSD radix sort of the bits, -0 before +0.
void SortByBits(std::vector<double>* values);

}  // namespace statdb

#endif  // STATDB_STATS_ORDER_STATE_H_
