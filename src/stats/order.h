#ifndef STATDB_STATS_ORDER_H_
#define STATDB_STATS_ORDER_H_

#include <cmath>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace statdb {

/// Order statistics — the functions the paper singles out as hard to
/// maintain incrementally because they "reflect an ordering on the input
/// data" (§4.2). The histogram-window maintainer in rules/ is the paper's
/// answer; these are the ground-truth full computations. None of them
/// sorts: each copies the data once and selects the ranks it needs with
/// std::nth_element, in O(n) expected time.
///
/// NaN contract (DESIGN.md §14): Median, Quantile, Quantiles and
/// TrimmedMean skip NaN cells, like Min/Max, and rank the rest. A
/// non-empty input whose values are all NaN yields NaN; an empty one is
/// an error.

/// INVALID_ARGUMENT unless p is a probability in [0, 1] (NaN is not):
/// the check Quantile and Quantiles make on every p.
Status ValidateProbability(double p);

/// R type 7 at fractional rank `h` = p·(n−1), from the order statistics
/// at ranks floor(h) and the next: the one expression every quantile
/// route evaluates, so their answers agree bit for bit.
inline double InterpolateType7(double h, double vlo, double vhi) {
  return vlo + (h - std::floor(h)) * (vhi - vlo);
}

/// Median (average of the two middle elements for even n).
Result<double> Median(const std::vector<double>& data);

/// Quantile with linear interpolation between order statistics (R type 7).
/// p in [0,1]; p=0 → min, p=1 → max.
Result<double> Quantile(const std::vector<double>& data, double p);

/// Several quantiles from one copy of the data. The ranks are selected
/// in ascending order, each on the suffix the previous selection left,
/// so `ps` may come in any order and repeat.
Result<std::vector<double>> Quantiles(const std::vector<double>& data,
                                      const std::vector<double>& ps);

/// Mean of the values within [Quantile(lo), Quantile(hi)] — e.g. the
/// 5%-95% trimmed mean of §3.1. Sums `data` in its original order.
Result<double> TrimmedMean(const std::vector<double>& data, double lo,
                           double hi);

/// k-th smallest, 0-based, by one selection (no full sort).
Result<double> KthSmallest(const std::vector<double>& data, size_t k);

}  // namespace statdb

#endif  // STATDB_STATS_ORDER_H_
