#include "stats/partial_stats.h"

#include <cmath>

namespace statdb {

void ComomentStats::Add(double x, double y) {
  ++n;
  double dn = double(n);
  double dx = x - mean_x;
  double dy = y - mean_y;
  mean_x += dx / dn;
  mean_y += dy / dn;
  // Use the post-update mean on one side (Welford form) for the second
  // moments and the co-moment.
  m2x += dx * (x - mean_x);
  m2y += dy * (y - mean_y);
  cxy += dx * (y - mean_y);
}

bool ComomentStats::Remove(double x, double y) {
  if (n == 0) return false;
  if (n == 1) {
    *this = ComomentStats{};
    return true;
  }
  // Solve Add's mean updates for the pre-insert means, then undo the
  // m2/cxy accumulations.
  double dn = double(n);
  double mx_prev = (dn * mean_x - x) / (dn - 1);
  double my_prev = (dn * mean_y - y) / (dn - 1);
  cxy -= (x - mx_prev) * (y - mean_y);
  m2x -= (x - mx_prev) * (x - mean_x);
  m2y -= (y - my_prev) * (y - mean_y);
  if (m2x < 0) m2x = 0;  // clamp FP drift
  if (m2y < 0) m2y = 0;
  mean_x = mx_prev;
  mean_y = my_prev;
  --n;
  return true;
}

void ComomentStats::Merge(const ComomentStats& o) {
  if (o.n == 0) return;
  if (n == 0) {
    *this = o;
    return;
  }
  double na = double(n);
  double nb = double(o.n);
  double nn = na + nb;
  double dx = o.mean_x - mean_x;
  double dy = o.mean_y - mean_y;
  m2x += o.m2x + dx * dx * na * nb / nn;
  m2y += o.m2y + dy * dy * na * nb / nn;
  cxy += o.cxy + dx * dy * na * nb / nn;
  mean_x += dx * nb / nn;
  mean_y += dy * nb / nn;
  n += o.n;
}

Result<double> ComomentStats::Covariance() const {
  if (n < 2) {
    return InvalidArgumentError("covariance needs at least 2 points");
  }
  return cxy / double(n - 1);
}

Result<double> ComomentStats::PearsonR() const {
  STATDB_ASSIGN_OR_RETURN(double cov, Covariance());
  if (m2x == 0.0 || m2y == 0.0) {
    return InvalidArgumentError("correlation with a constant column");
  }
  double sx = std::sqrt(m2x / double(n - 1));
  double sy = std::sqrt(m2y / double(n - 1));
  return cov / (sx * sy);
}

Result<LinearFit> ComomentStats::Fit() const {
  if (n < 2) {
    return InvalidArgumentError("regression needs at least 2 points");
  }
  if (m2x == 0.0) {
    return InvalidArgumentError("regression on a constant x column");
  }
  LinearFit fit;
  fit.n = n;
  fit.slope = cxy / m2x;
  fit.intercept = mean_y - fit.slope * mean_x;
  // ss_res = syy - sxy^2/sxx, algebraically identical to summing squared
  // residuals; clamp the tiny negative values FP cancellation can leave.
  double ss_res = m2y - cxy * cxy / m2x;
  if (ss_res < 0.0) ss_res = 0.0;
  fit.r_squared = m2y == 0.0 ? 1.0 : 1.0 - ss_res / m2y;
  fit.residual_stddev = n > 2 ? std::sqrt(ss_res / double(n - 2)) : 0.0;
  return fit;
}

ComomentStats ComputeComoments(const std::vector<double>& x,
                               const std::vector<double>& y) {
  ComomentStats s;
  size_t n = std::min(x.size(), y.size());
  for (size_t i = 0; i < n; ++i) s.Add(x[i], y[i]);
  return s;
}

void ValueCounts::Reserve(size_t n) {
  for (auto& shard : shards) shard.reserve(n / kShards + 1);
}

bool ValueCounts::Remove(double x) {
  auto& shard = shards[ShardOf(x)];
  auto it = shard.find(x);
  if (it == shard.end()) return false;
  if (--it->second == 0) shard.erase(it);
  return true;
}

void ValueCounts::Merge(const ValueCounts& o) {
  for (size_t s = 0; s < kShards; ++s) MergeShard(o, s);
}

void ValueCounts::MergeShard(const ValueCounts& o, size_t s) {
  for (const auto& [value, count] : o.shards[s]) shards[s][value] += count;
}

uint64_t ValueCounts::Distinct() const {
  uint64_t n = 0;
  for (const auto& shard : shards) n += shard.size();
  return n;
}

Result<double> ValueCounts::ModeValue() const {
  bool have = false;
  double best = 0;
  uint64_t best_count = 0;
  for (const auto& shard : shards) {
    for (const auto& [value, count] : shard) {
      if (!have || count > best_count ||
          (count == best_count && value < best)) {
        best = value;
        best_count = count;
        have = true;
      }
    }
  }
  if (!have) return InvalidArgumentError("statistic of an empty column");
  return best;
}

Result<Histogram> ValueCounts::ToHistogram(size_t buckets, double lo,
                                           double hi) const {
  STATDB_ASSIGN_OR_RETURN(Histogram h, BuildHistogram({}, buckets, lo, hi));
  for (const auto& shard : shards) {
    for (const auto& [value, count] : shard) {
      if (std::isnan(value)) continue;  // as BuildHistogram
      if (value < lo) {
        h.below += count;
      } else if (value > hi) {
        h.above += count;
      } else {
        int b = h.BucketOf(value);
        h.counts[static_cast<size_t>(b)] += count;
      }
    }
  }
  return h;
}

}  // namespace statdb
