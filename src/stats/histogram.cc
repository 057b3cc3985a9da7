#include "stats/histogram.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "stats/descriptive.h"

namespace statdb {

uint64_t Histogram::TotalCount() const {
  uint64_t total = below + above;
  for (uint64_t c : counts) total += c;
  return total;
}

int Histogram::BucketOf(double x) const {
  // NaN fails both range compares below, so it is tested first: it has
  // no bucket (DESIGN.md §14).
  if (edges.size() < 2 || std::isnan(x)) return -1;
  double lo = edges.front(), hi = edges.back();
  if (x < lo || x > hi) return -1;
  const int last = static_cast<int>(counts.size()) - 1;
  if (x == hi) return last;
  double width = (hi - lo) / double(counts.size());
  // Clamped before the cast, which is undefined out of int's range. An
  // infinite edge makes the quotient NaN; it goes to the first bucket,
  // so the bucket stays monotone in x.
  const double q = (x - lo) / width;
  if (!(q >= 0)) return 0;
  return q >= double(last) ? last : static_cast<int>(q);
}

Status Histogram::Merge(const Histogram& o) {
  if (edges != o.edges || counts.size() != o.counts.size()) {
    return InvalidArgumentError(
        "histogram merge requires identical (frozen) bucket edges");
  }
  for (size_t i = 0; i < counts.size(); ++i) counts[i] += o.counts[i];
  below += o.below;
  above += o.above;
  return Status::OK();
}

std::string Histogram::ToString() const {
  std::ostringstream os;
  uint64_t max_count = 1;
  for (uint64_t c : counts) max_count = std::max(max_count, c);
  for (size_t i = 0; i < counts.size(); ++i) {
    os << "[" << edges[i] << ", " << edges[i + 1] << ") " << counts[i] << " ";
    size_t bar = static_cast<size_t>(40.0 * double(counts[i]) /
                                     double(max_count));
    os << std::string(bar, '#') << "\n";
  }
  if (below > 0) os << "(below range: " << below << ")\n";
  if (above > 0) os << "(above range: " << above << ")\n";
  return os.str();
}

std::vector<double> EqualWidthEdges(double lo, double hi, size_t buckets) {
  std::vector<double> edges(buckets + 1);
  const double width = (hi - lo) / double(buckets);
  for (size_t i = 0; i <= buckets; ++i) {
    edges[i] = lo + width * double(i);
  }
  edges.back() = hi;  // avoid FP drift at the top edge
  return edges;
}

Result<Histogram> BuildHistogram(const std::vector<double>& data,
                                 size_t buckets, double lo, double hi) {
  if (buckets == 0) {
    return InvalidArgumentError("histogram needs at least one bucket");
  }
  if (!(lo < hi)) {
    return InvalidArgumentError("histogram range is empty");
  }
  Histogram h;
  h.edges = EqualWidthEdges(lo, hi, buckets);
  h.counts.assign(buckets, 0);
  for (double x : data) {
    if (std::isnan(x)) continue;  // no bucket, like Min/Max skip it
    if (x < lo) {
      ++h.below;
    } else if (x > hi) {
      ++h.above;
    } else {
      int b = h.BucketOf(x);
      ++h.counts[static_cast<size_t>(b)];
    }
  }
  return h;
}

Result<Histogram> BuildHistogramAuto(const std::vector<double>& data,
                                     size_t buckets) {
  if (data.empty()) {
    return InvalidArgumentError("histogram of an empty column");
  }
  STATDB_ASSIGN_OR_RETURN(double lo, Min(data));
  STATDB_ASSIGN_OR_RETURN(double hi, Max(data));
  if (lo == hi) hi = lo + 1.0;  // degenerate constant column
  return BuildHistogram(data, buckets, lo, hi);
}

}  // namespace statdb
