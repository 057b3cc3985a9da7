#ifndef STATDB_STATS_TESTS_H_
#define STATDB_STATS_TESTS_H_

#include <functional>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "stats/crosstab.h"
#include "stats/descriptive.h"

namespace statdb {

/// Outcome of a hypothesis test.
struct TestResult {
  double statistic = 0;
  double dof = 0;      // degrees of freedom (0 when not applicable)
  double p_value = 0;  // probability of a statistic at least this extreme
};

/// Pearson chi-squared test of independence on a contingency table
/// (§2.2's confirmatory example). Errors on degenerate tables (<2 rows
/// or columns, or an empty margin).
Result<TestResult> ChiSquaredIndependence(const CrossTab& table);

/// Chi-squared goodness-of-fit of observed counts against expected
/// counts (same length, expected > 0). dof = k - 1 - `fitted_params`.
Result<TestResult> ChiSquaredGoodnessOfFit(
    const std::vector<uint64_t>& observed,
    const std::vector<double>& expected, int fitted_params = 0);

/// Welch's two-sample t-test (unequal variances): "is the mean income
/// of group A different from group B?" — a standard confirmatory-phase
/// comparison. dof via Welch–Satterthwaite; two-sided p-value. From the
/// two samples' moment states, so a scan folds the groups without
/// gathering them (not an overload: DescriptiveStats is an aggregate, so
/// `WelchTTest({3, 3}, {4, 4})` would be ambiguous).
Result<TestResult> WelchTTestFromMoments(const DescriptiveStats& a,
                                         const DescriptiveStats& b);
/// The same test over the samples themselves.
Result<TestResult> WelchTTest(const std::vector<double>& a,
                              const std::vector<double>& b);

/// One-sample Kolmogorov-Smirnov test against a hypothesized CDF
/// ("does this attribute follow a particular distribution?", §2.2).
/// p-value uses the asymptotic Kolmogorov distribution.
Result<TestResult> KolmogorovSmirnov(
    const std::vector<double>& data,
    const std::function<double(double)>& cdf);

}  // namespace statdb

#endif  // STATDB_STATS_TESTS_H_
