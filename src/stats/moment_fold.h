#ifndef STATDB_STATS_MOMENT_FOLD_H_
#define STATDB_STATS_MOMENT_FOLD_H_

#include <cstddef>
#include <vector>

#include "stats/descriptive.h"
#include "stats/partial_stats.h"

namespace statdb {

/// The one moment fold (DESIGN.md §14). A value sequence is cut into
/// consecutive blocks of kFoldBlock values (the last one shorter); each
/// block is reduced by the 4-lane span kernel (simd::DescribeSpan /
/// ComomentSpan), and the block states are merged in order with
/// DescriptiveStats::Merge / ComomentStats::Merge. ComputeDescriptive,
/// ComputeComoments, Sum, the rules' Initialize and every one-worker scan
/// fold through it, so they agree bit for bit; DescriptiveStats::Add is
/// the maintainers' incremental step and tracks the fold to rounding.
///
/// One transition per block, not per value: a block costs three
/// vectorized passes over 32 KiB instead of a division per value.
inline constexpr size_t kFoldBlock = 4096;

/// The fold of data[0, n).
DescriptiveStats FoldMoments(const double* data, size_t n);
/// The fold of the row-aligned pairs (xs[i], ys[i]), i < n.
ComomentStats FoldComoments(const double* xs, const double* ys, size_t n);

/// FoldMoments fed in pieces: feeding a sequence in pieces of any size
/// gives the same bits as one FoldMoments call over the whole of it.
/// Whole blocks fold straight from the caller's piece; only a block that
/// straddles two pieces is copied.
class MomentFold {
 public:
  void Add(const double* data, size_t n);
  void Add(const std::vector<double>& data) { Add(data.data(), data.size()); }
  /// The fold of everything added so far.
  DescriptiveStats Finish() const;

 private:
  DescriptiveStats done_;        // the merged whole blocks
  std::vector<double> pending_;  // fewer than kFoldBlock values
};

/// FoldComoments fed in pieces, with MomentFold's guarantee.
class ComomentFold {
 public:
  void Add(const double* xs, const double* ys, size_t n);
  void Add(const std::vector<double>& xs, const std::vector<double>& ys) {
    Add(xs.data(), ys.data(), xs.size());
  }
  ComomentStats Finish() const;

 private:
  ComomentStats done_;
  std::vector<double> pending_x_;
  std::vector<double> pending_y_;
};

}  // namespace statdb

#endif  // STATDB_STATS_MOMENT_FOLD_H_
