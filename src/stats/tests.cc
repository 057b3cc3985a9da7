#include "stats/tests.h"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.h"
#include "stats/distributions.h"

namespace statdb {

Result<TestResult> ChiSquaredIndependence(const CrossTab& table) {
  size_t r = table.row_labels.size();
  size_t c = table.col_labels.size();
  if (r < 2 || c < 2) {
    return InvalidArgumentError("chi-squared needs a >=2x2 table");
  }
  std::vector<uint64_t> row_totals = table.RowTotals();
  std::vector<uint64_t> col_totals = table.ColTotals();
  uint64_t total = table.Total();
  if (total == 0) {
    return InvalidArgumentError("chi-squared on an empty table");
  }
  for (uint64_t t : row_totals) {
    if (t == 0) return InvalidArgumentError("empty row margin");
  }
  for (uint64_t t : col_totals) {
    if (t == 0) return InvalidArgumentError("empty column margin");
  }
  double stat = 0;
  for (size_t i = 0; i < r; ++i) {
    for (size_t j = 0; j < c; ++j) {
      double expected =
          double(row_totals[i]) * double(col_totals[j]) / double(total);
      double diff = double(table.counts[i][j]) - expected;
      stat += diff * diff / expected;
    }
  }
  TestResult out;
  out.statistic = stat;
  out.dof = double((r - 1) * (c - 1));
  STATDB_ASSIGN_OR_RETURN(out.p_value, ChiSquaredPValue(stat, out.dof));
  return out;
}

Result<TestResult> ChiSquaredGoodnessOfFit(
    const std::vector<uint64_t>& observed,
    const std::vector<double>& expected, int fitted_params) {
  if (observed.size() != expected.size() || observed.size() < 2) {
    return InvalidArgumentError("goodness-of-fit inputs malformed");
  }
  double stat = 0;
  for (size_t i = 0; i < observed.size(); ++i) {
    if (expected[i] <= 0) {
      return InvalidArgumentError("expected count must be positive");
    }
    double diff = double(observed[i]) - expected[i];
    stat += diff * diff / expected[i];
  }
  TestResult out;
  out.statistic = stat;
  out.dof = double(observed.size()) - 1.0 - double(fitted_params);
  if (out.dof <= 0) {
    return InvalidArgumentError("non-positive degrees of freedom");
  }
  STATDB_ASSIGN_OR_RETURN(out.p_value, ChiSquaredPValue(stat, out.dof));
  return out;
}

Result<TestResult> WelchTTestFromMoments(const DescriptiveStats& a,
                                         const DescriptiveStats& b) {
  if (a.count < 2 || b.count < 2) {
    return InvalidArgumentError("t-test needs >= 2 points per sample");
  }
  double va = a.Variance() / double(a.count);
  double vb = b.Variance() / double(b.count);
  if (va + vb == 0.0) {
    return InvalidArgumentError("t-test on two constant samples");
  }
  TestResult out;
  out.statistic = (a.mean - b.mean) / std::sqrt(va + vb);
  // Welch–Satterthwaite degrees of freedom.
  out.dof = (va + vb) * (va + vb) /
            (va * va / double(a.count - 1) + vb * vb / double(b.count - 1));
  STATDB_ASSIGN_OR_RETURN(double cdf,
                          StudentTCdf(std::abs(out.statistic), out.dof));
  out.p_value = 2.0 * (1.0 - cdf);
  return out;
}

Result<TestResult> WelchTTest(const std::vector<double>& a,
                              const std::vector<double>& b) {
  return WelchTTestFromMoments(ComputeDescriptive(a), ComputeDescriptive(b));
}

namespace {

/// Asymptotic Kolmogorov distribution Q(lambda) = 2 sum (-1)^{k-1}
/// exp(-2 k^2 lambda^2).
double KolmogorovQ(double lambda) {
  if (lambda < 1e-8) return 1.0;
  double sum = 0;
  double sign = 1.0;
  for (int k = 1; k <= 100; ++k) {
    double term = std::exp(-2.0 * double(k) * double(k) * lambda * lambda);
    sum += sign * term;
    if (term < 1e-12) break;
    sign = -sign;
  }
  return std::clamp(2.0 * sum, 0.0, 1.0);
}

}  // namespace

Result<TestResult> KolmogorovSmirnov(
    const std::vector<double>& data,
    const std::function<double(double)>& cdf) {
  if (data.empty()) {
    return InvalidArgumentError("KS test on empty data");
  }
  std::vector<double> sorted = data;
  std::sort(sorted.begin(), sorted.end());
  double n = double(sorted.size());
  double d = 0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    double f = cdf(sorted[i]);
    double lo = double(i) / n;
    double hi = double(i + 1) / n;
    d = std::max({d, std::abs(f - lo), std::abs(hi - f)});
  }
  TestResult out;
  out.statistic = d;
  double sqrt_n = std::sqrt(n);
  out.p_value = KolmogorovQ((sqrt_n + 0.12 + 0.11 / sqrt_n) * d);
  return out;
}

}  // namespace statdb
