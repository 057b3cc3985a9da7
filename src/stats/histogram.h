#ifndef STATDB_STATS_HISTOGRAM_H_
#define STATDB_STATS_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace statdb {

/// Equi-width histogram: `edges` has buckets+1 entries; counts[i] covers
/// [edges[i], edges[i+1]) with the last bucket closed on the right. The
/// Summary Database stores histograms as "two vectors (one for the ranges
/// and the other for the number of values that fall in each range)" —
/// exactly this representation (§3.2).
struct Histogram {
  std::vector<double> edges;
  std::vector<uint64_t> counts;
  uint64_t below = 0;  // values < edges.front()
  uint64_t above = 0;  // values > edges.back()

  size_t buckets() const { return counts.size(); }
  uint64_t TotalCount() const;

  /// Index of the bucket containing x, or -1 if x is NaN or outside the
  /// range. Monotone: x <= y in range gives BucketOf(x) <= BucketOf(y), so
  /// over sorted values each bucket is one contiguous slice.
  int BucketOf(double x) const;

  /// Adds another histogram's counts bucket-by-bucket. Requires bitwise
  /// identical edges: equi-width bucketing is only mergeable when every
  /// shard bucketed against the same frozen edge vector (a value near an
  /// edge lands in different buckets under even slightly different
  /// edges). Shard-parallel histogram computation therefore freezes the
  /// edges first (from merged min/max) and hands every shard the same
  /// vector.
  Status Merge(const Histogram& o);

  std::string ToString() const;
};

/// The buckets + 1 edges of `buckets` equal-width buckets over [lo, hi]:
/// lo + i * (hi - lo) / buckets, the last one hi exactly.
std::vector<double> EqualWidthEdges(double lo, double hi, size_t buckets);

/// Histogram over [lo, hi] with `buckets` equal-width buckets. Values
/// outside the range land in `below`/`above` (the paper's 101st bucket).
/// NaN values are skipped (DESIGN.md §14): they count nowhere.
Result<Histogram> BuildHistogram(const std::vector<double>& data,
                                 size_t buckets, double lo, double hi);

/// Histogram spanning the data's own NaN-skipping min..max.
Result<Histogram> BuildHistogramAuto(const std::vector<double>& data,
                                     size_t buckets);

}  // namespace statdb

#endif  // STATDB_STATS_HISTOGRAM_H_
