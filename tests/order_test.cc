#include "stats/order.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "gtest/gtest.h"

namespace statdb {
namespace {

TEST(OrderTest, MedianOddEven) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}).value(), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}).value(), 2.5);
  EXPECT_DOUBLE_EQ(Median({7}).value(), 7.0);
}

TEST(OrderTest, MedianOfEmptyFails) {
  EXPECT_FALSE(Median({}).ok());
}

TEST(OrderTest, QuantileEndpoints) {
  std::vector<double> d = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Quantile(d, 0.0).value(), 10.0);
  EXPECT_DOUBLE_EQ(Quantile(d, 1.0).value(), 40.0);
  EXPECT_DOUBLE_EQ(Quantile(d, 0.5).value(), 25.0);
}

TEST(OrderTest, QuantileInterpolates) {
  std::vector<double> d = {0, 10};
  EXPECT_DOUBLE_EQ(Quantile(d, 0.25).value(), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(d, 0.75).value(), 7.5);
}

TEST(OrderTest, QuantileRejectsBadP) {
  std::vector<double> d = {1, 2};
  EXPECT_FALSE(Quantile(d, -0.1).ok());
  EXPECT_FALSE(Quantile(d, 1.1).ok());
}

// Regression test: `p < 0.0 || p > 1.0` is false for NaN, so a NaN
// probability used to sail through validation and become a garbage index
// in the interpolation. Both entry points must reject it up front.
TEST(OrderTest, QuantileRejectsNaNP) {
  std::vector<double> d = {1, 2, 3};
  double nan = std::nan("");
  Result<double> r = Quantile(d, nan);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("nan"), std::string::npos);
  EXPECT_FALSE(Quantiles(d, {0.5, nan}).ok());
}

TEST(OrderTest, QuantilesValidatesWholeListBeforeSorting) {
  // A bad p anywhere in the list must fail the whole call — the old code
  // validated each p only after paying the O(n log n) sort, and a bad p
  // after good ones produced a partial result that was then discarded.
  std::vector<double> d = {5, 1, 4, 2, 3};
  EXPECT_FALSE(Quantiles(d, {0.25, 0.5, 1.5}).ok());
  EXPECT_FALSE(Quantiles(d, {-0.1, 0.5}).ok());
  // An empty probability list is valid and yields an empty result.
  auto empty = Quantiles(d, {});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(OrderTest, QuantilesShareOneSort) {
  std::vector<double> d = {5, 1, 4, 2, 3};
  auto qs = Quantiles(d, {0.0, 0.25, 0.5, 0.75, 1.0});
  ASSERT_TRUE(qs.ok());
  EXPECT_DOUBLE_EQ((*qs)[0], 1.0);
  EXPECT_DOUBLE_EQ((*qs)[1], 2.0);
  EXPECT_DOUBLE_EQ((*qs)[2], 3.0);
  EXPECT_DOUBLE_EQ((*qs)[3], 4.0);
  EXPECT_DOUBLE_EQ((*qs)[4], 5.0);
}

TEST(OrderTest, TrimmedMeanDropsTails) {
  // 0..100: trimming the 5% tails removes 0,1,2 and 98,99,100-ish.
  std::vector<double> d;
  for (int i = 0; i <= 100; ++i) d.push_back(i);
  double full = 50.0;
  auto trimmed = TrimmedMean(d, 0.05, 0.95);
  ASSERT_TRUE(trimmed.ok());
  EXPECT_NEAR(*trimmed, full, 0.5);
  // Planting a huge outlier moves the mean but not the trimmed mean.
  d.push_back(1e9);
  auto trimmed2 = TrimmedMean(d, 0.05, 0.95);
  ASSERT_TRUE(trimmed2.ok());
  EXPECT_LT(std::abs(*trimmed2 - full), 2.0);
}

TEST(OrderTest, TrimmedMeanRejectsBadBounds) {
  std::vector<double> d = {1, 2, 3};
  EXPECT_FALSE(TrimmedMean(d, 0.9, 0.1).ok());
  EXPECT_FALSE(TrimmedMean(d, -0.1, 0.5).ok());
}

TEST(OrderTest, KthSmallest) {
  std::vector<double> d = {9, 3, 7, 1, 5};
  EXPECT_DOUBLE_EQ(KthSmallest(d, 0).value(), 1.0);
  EXPECT_DOUBLE_EQ(KthSmallest(d, 2).value(), 5.0);
  EXPECT_DOUBLE_EQ(KthSmallest(d, 4).value(), 9.0);
  EXPECT_FALSE(KthSmallest(d, 5).ok());
}

class QuantilePropertyTest : public ::testing::TestWithParam<int> {};

// Quantile must equal the direct definition on the sorted data, for all
// p, and be monotone in p.
TEST_P(QuantilePropertyTest, MatchesSortedDefinitionAndMonotone) {
  Rng rng(GetParam());
  std::vector<double> data;
  int n = 1 + static_cast<int>(rng.UniformInt(0, 500));
  for (int i = 0; i < n; ++i) {
    data.push_back(rng.UniformDouble(-100, 100));
  }
  std::vector<double> sorted = data;
  std::sort(sorted.begin(), sorted.end());
  double prev = sorted.front();
  for (int pi = 0; pi <= 20; ++pi) {
    double p = pi / 20.0;
    auto q = Quantile(data, p);
    ASSERT_TRUE(q.ok());
    // Within data range and monotone.
    EXPECT_GE(*q, sorted.front());
    EXPECT_LE(*q, sorted.back());
    EXPECT_GE(*q + 1e-12, prev);
    prev = *q;
    // Exact for integral ranks.
    double h = p * (n - 1);
    if (h == std::floor(h)) {
      EXPECT_DOUBLE_EQ(*q, sorted[static_cast<size_t>(h)]);
    }
  }
  // Median via quantile equals Median().
  EXPECT_DOUBLE_EQ(Quantile(data, 0.5).value(), Median(data).value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantilePropertyTest,
                         ::testing::Range(1, 13));


// --- selection against a sort-based reference ----------------------------

/// R type-7 quantile on a fully sorted copy: the sort-based definition
/// the selection path must reproduce bit for bit.
double SortedQuantile(const std::vector<double>& sorted, double p) {
  size_t n = sorted.size();
  if (n == 1) return sorted[0];
  double h = p * double(n - 1);
  size_t lo = static_cast<size_t>(std::floor(h));
  size_t hi = std::min(lo + 1, n - 1);
  double frac = h - double(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

/// Trimmed mean with sort-based bounds, summing `data` in its order.
Result<double> SortedTrimmedMean(const std::vector<double>& data, double lo,
                                 double hi) {
  std::vector<double> sorted = data;
  std::sort(sorted.begin(), sorted.end());
  double b0 = SortedQuantile(sorted, lo);
  double b1 = SortedQuantile(sorted, hi);
  double sum = 0;
  size_t count = 0;
  for (double x : data) {
    if (x >= b0 && x <= b1) {
      sum += x;
      ++count;
    }
  }
  if (count == 0) return InvalidArgumentError("trim bounds exclude all data");
  return sum / double(count);
}

/// Data of one of four shapes: spread, heavy duplicates, pre-sorted and
/// reverse-sorted.
std::vector<double> ShapedData(Rng* rng, int shape) {
  int n = 1 + static_cast<int>(rng->UniformInt(0, 1999));
  std::vector<double> d;
  for (int i = 0; i < n; ++i) {
    d.push_back(shape == 1 ? double(rng->UniformInt(0, 4))
                           : rng->UniformDouble(-1e3, 1e3));
  }
  if (shape == 2) std::sort(d.begin(), d.end());
  if (shape == 3) std::sort(d.rbegin(), d.rend());
  return d;
}

class SelectionVsSortTest : public ::testing::TestWithParam<int> {};

TEST_P(SelectionVsSortTest, QuantilesEqualSortReference) {
  Rng rng(1000 + GetParam());
  std::vector<double> data = ShapedData(&rng, GetParam() % 4);
  std::vector<double> sorted = data;
  std::sort(sorted.begin(), sorted.end());
  // Unsorted and repeated probabilities, including both ends.
  std::vector<double> ps = {0.75, 0.0, 1.0, 0.5, 0.25, 0.5, 1.0, 0.0};
  for (int i = 0; i < 8; ++i) ps.push_back(rng.UniformDouble(0, 1));
  auto qs = Quantiles(data, ps);
  ASSERT_TRUE(qs.ok());
  ASSERT_EQ(qs->size(), ps.size());
  for (size_t k = 0; k < ps.size(); ++k) {
    EXPECT_EQ((*qs)[k], SortedQuantile(sorted, ps[k])) << "p=" << ps[k];
    EXPECT_EQ(Quantile(data, ps[k]).value(), SortedQuantile(sorted, ps[k]));
  }
  EXPECT_EQ(Median(data).value(), SortedQuantile(sorted, 0.5));

  for (auto [lo, hi] : std::vector<std::pair<double, double>>{
           {0.05, 0.95}, {0.0, 1.0}, {0.25, 0.5}, {0.4, 0.6}}) {
    Result<double> got = TrimmedMean(data, lo, hi);
    Result<double> want = SortedTrimmedMean(data, lo, hi);
    ASSERT_EQ(got.ok(), want.ok()) << lo << ".." << hi;
    if (got.ok()) {
      EXPECT_EQ(*got, *want) << lo << ".." << hi;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectionVsSortTest, ::testing::Range(0, 40));

// --- NaN contract: the quantile family skips NaN, like Min/Max ------------

TEST(OrderNaNTest, NaNFirstMiddleLastIsSkipped) {
  const double nan = std::nan("");
  const std::vector<double> clean = {4, 1, 3, 2, 5};
  for (size_t at = 0; at <= clean.size(); ++at) {
    std::vector<double> d = clean;
    d.insert(d.begin() + at, nan);
    EXPECT_EQ(Median(d).value(), 3.0) << "NaN at " << at;
    EXPECT_EQ(Quantile(d, 0.0).value(), 1.0) << "NaN at " << at;
    EXPECT_EQ(Quantile(d, 1.0).value(), 5.0) << "NaN at " << at;
    EXPECT_EQ(Quantiles(d, {0.25, 0.75}).value(),
              Quantiles(clean, {0.25, 0.75}).value());
    EXPECT_EQ(TrimmedMean(d, 0.2, 0.8).value(),
              TrimmedMean(clean, 0.2, 0.8).value());
  }
}

TEST(OrderNaNTest, NaNEverywhereYieldsNaN) {
  const double nan = std::nan("");
  std::vector<double> d(7, nan);
  EXPECT_TRUE(std::isnan(Median(d).value()));
  EXPECT_TRUE(std::isnan(Quantile(d, 0.3).value()));
  auto qs = Quantiles(d, {0.0, 0.5, 1.0});
  ASSERT_TRUE(qs.ok());
  for (double q : *qs) EXPECT_TRUE(std::isnan(q));
  EXPECT_TRUE(std::isnan(TrimmedMean(d, 0.05, 0.95).value()));
  // Empty input stays an error, and a bad p still fails first.
  EXPECT_FALSE(Median({}).ok());
  EXPECT_FALSE(Quantile(d, 1.5).ok());
}

TEST(OrderNaNTest, InterleavedNaNMatchesNaNFreeData) {
  Rng rng(77);
  std::vector<double> clean, mixed;
  for (int i = 0; i < 500; ++i) {
    double x = rng.UniformDouble(-10, 10);
    clean.push_back(x);
    mixed.push_back(x);
    if (rng.Bernoulli(0.3)) mixed.push_back(std::nan(""));
  }
  std::vector<double> ps = {0.0, 0.1, 0.5, 0.9, 1.0};
  EXPECT_EQ(Quantiles(mixed, ps).value(), Quantiles(clean, ps).value());
  EXPECT_EQ(TrimmedMean(mixed, 0.1, 0.9).value(),
            TrimmedMean(clean, 0.1, 0.9).value());
}

}  // namespace
}  // namespace statdb
