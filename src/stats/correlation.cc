#include "stats/correlation.h"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.h"

namespace statdb {

namespace {

/// Covariance given each column's descriptive statistics, so PearsonR
/// shares one Welford pass per column between the means and the
/// standard deviations.
double CovarianceWith(const std::vector<double>& x,
                      const std::vector<double>& y,
                      const DescriptiveStats& dx, const DescriptiveStats& dy) {
  double acc = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    acc += (x[i] - dx.mean) * (y[i] - dy.mean);
  }
  return acc / double(x.size() - 1);
}

Status CheckPairedInput(const std::vector<double>& x,
                        const std::vector<double>& y) {
  if (x.size() != y.size()) {
    return InvalidArgumentError("covariance inputs differ in length");
  }
  if (x.size() < 2) {
    return InvalidArgumentError("covariance needs at least 2 points");
  }
  return Status::OK();
}

}  // namespace

Result<double> Covariance(const std::vector<double>& x,
                          const std::vector<double>& y) {
  STATDB_RETURN_IF_ERROR(CheckPairedInput(x, y));
  return CovarianceWith(x, y, ComputeDescriptive(x), ComputeDescriptive(y));
}

Result<double> PearsonR(const std::vector<double>& x,
                        const std::vector<double>& y) {
  STATDB_RETURN_IF_ERROR(CheckPairedInput(x, y));
  const DescriptiveStats dx = ComputeDescriptive(x);
  const DescriptiveStats dy = ComputeDescriptive(y);
  double cov = CovarianceWith(x, y, dx, dy);
  double sx = dx.StdDev();
  double sy = dy.StdDev();
  if (sx == 0.0 || sy == 0.0) {
    return InvalidArgumentError("correlation with a constant column");
  }
  return cov / (sx * sy);
}

std::vector<double> AverageRanks(const std::vector<double>& data) {
  std::vector<size_t> order(data.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&data](size_t a, size_t b) { return data[a] < data[b]; });
  std::vector<double> ranks(data.size(), 0.0);
  size_t i = 0;
  while (i < order.size()) {
    size_t j = i;
    while (j + 1 < order.size() && data[order[j + 1]] == data[order[i]]) {
      ++j;
    }
    // Positions i..j (0-based) share the average 1-based rank.
    double avg = 0.5 * (double(i) + double(j)) + 1.0;
    for (size_t k = i; k <= j; ++k) ranks[order[k]] = avg;
    i = j + 1;
  }
  return ranks;
}

Result<double> SpearmanRho(const std::vector<double>& x,
                           const std::vector<double>& y) {
  if (x.size() != y.size()) {
    return InvalidArgumentError("Spearman inputs differ in length");
  }
  return PearsonR(AverageRanks(x), AverageRanks(y));
}

}  // namespace statdb
