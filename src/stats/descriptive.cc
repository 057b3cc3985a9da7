#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace statdb {

double DescriptiveStats::Variance() const {
  return count < 2 ? 0.0 : m2 / double(count - 1);
}

double DescriptiveStats::StdDev() const { return std::sqrt(Variance()); }

void DescriptiveStats::Merge(const DescriptiveStats& o) {
  if (o.count == 0) return;
  if (count == 0) {
    *this = o;
    return;
  }
  double na = double(count);
  double nb = double(o.count);
  double nn = na + nb;
  double delta = o.mean - mean;
  m2 += o.m2 + delta * delta * na * nb / nn;
  mean += delta * nb / nn;
  sum += o.sum;
  // NaN min/max mean "that shard's values were all NaN": keep the other
  // side's extremum instead of letting std::min's NaN ordering make the
  // merge depend on shard order.
  if (std::isnan(min)) {
    min = o.min;
    max = o.max;
  } else if (!std::isnan(o.min)) {
    min = std::min(min, o.min);
    max = std::max(max, o.max);
  }
  count += o.count;
}

bool DescriptiveStats::Remove(double x) {
  if (count == 0) return false;
  if (count == 1) {
    *this = DescriptiveStats{};
    return true;
  }
  // Solve Add's mean update for the pre-insert mean, then undo its m2
  // accumulation.
  double old_mean = mean;
  mean = (double(count) * mean - x) / double(count - 1);
  m2 -= (x - old_mean) * (x - mean);
  if (m2 < 0) m2 = 0;  // clamp FP drift
  sum -= x;
  --count;
  return true;
}

DescriptiveStats ComputeDescriptive(const std::vector<double>& data) {
  DescriptiveStats s;
  for (double x : data) s.Add(x);
  return s;
}

namespace {
Status RequireNonEmpty(const std::vector<double>& data) {
  if (data.empty()) {
    return InvalidArgumentError("statistic of an empty column");
  }
  return Status::OK();
}
}  // namespace

Result<double> Min(const std::vector<double>& data) {
  STATDB_RETURN_IF_ERROR(RequireNonEmpty(data));
  // Not std::min_element: its operator< ordering makes the answer depend
  // on where a NaN sits. Same NaN-skipping rule as ComputeDescriptive.
  double mn = std::numeric_limits<double>::infinity();
  bool any = false;
  for (double x : data) {
    if (std::isnan(x)) continue;
    any = true;
    if (x < mn) mn = x;
  }
  if (!any) return std::numeric_limits<double>::quiet_NaN();
  return mn;
}

Result<double> Max(const std::vector<double>& data) {
  STATDB_RETURN_IF_ERROR(RequireNonEmpty(data));
  double mx = -std::numeric_limits<double>::infinity();
  bool any = false;
  for (double x : data) {
    if (std::isnan(x)) continue;
    any = true;
    if (x > mx) mx = x;
  }
  if (!any) return std::numeric_limits<double>::quiet_NaN();
  return mx;
}

Result<double> Mean(const std::vector<double>& data) {
  STATDB_RETURN_IF_ERROR(RequireNonEmpty(data));
  return ComputeDescriptive(data).mean;
}

Result<double> Variance(const std::vector<double>& data) {
  STATDB_RETURN_IF_ERROR(RequireNonEmpty(data));
  return ComputeDescriptive(data).Variance();
}

Result<double> StdDev(const std::vector<double>& data) {
  STATDB_RETURN_IF_ERROR(RequireNonEmpty(data));
  return ComputeDescriptive(data).StdDev();
}

double Sum(const std::vector<double>& data) {
  double s = 0;
  for (double x : data) s += x;
  return s;
}

Result<double> Mode(const std::vector<double>& data) {
  STATDB_RETURN_IF_ERROR(RequireNonEmpty(data));
  // One scan over the runs of a sorted copy. Runs come in ascending
  // order and only a strictly longer run replaces the best, so ties keep
  // the smallest value.
  std::vector<double> sorted = data;
  std::sort(sorted.begin(), sorted.end());
  double best = sorted[0];
  size_t best_count = 0;
  for (size_t i = 0; i < sorted.size();) {
    size_t j = i + 1;
    while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
    if (j - i > best_count) {
      best = sorted[i];
      best_count = j - i;
    }
    i = j;
  }
  return best;
}

uint64_t CountDistinct(const std::vector<double>& data) {
  std::vector<double> sorted = data;
  std::sort(sorted.begin(), sorted.end());
  return std::unique(sorted.begin(), sorted.end()) - sorted.begin();
}

}  // namespace statdb
