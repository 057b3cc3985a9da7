// The state algebra every scan, merge and maintainer shares
// (DESIGN.md §14): Add then Remove restores a DescriptiveStats,
// ComomentStats or ValueCounts to its earlier value, removing the last
// value resets it, a fold of Add is the Welford loop bit for bit,
// ComputeDescriptive is the blocked moment fold bit for bit, and Welch's
// t finishes from two moment states exactly as from the samples.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "stats/descriptive.h"
#include "stats/moment_fold.h"
#include "stats/partial_stats.h"
#include "stats/tests.h"

namespace statdb {
namespace {

void ExpectClose(double got, double want) {
  EXPECT_NEAR(got, want, 1e-9 * std::max(1.0, std::abs(want)))
      << "got " << got << " want " << want;
}

/// Bit-for-bit equality, NaN included.
void ExpectSameBits(double got, double want) {
  EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
      << "got " << got << " want " << want;
}

void ExpectSameState(const DescriptiveStats& got,
                     const DescriptiveStats& want) {
  EXPECT_EQ(got.count, want.count);
  ExpectSameBits(got.sum, want.sum);
  ExpectSameBits(got.mean, want.mean);
  ExpectSameBits(got.m2, want.m2);
  ExpectSameBits(got.min, want.min);
  ExpectSameBits(got.max, want.max);
}

/// The one-pass Welford loop with min/max seeded from +inf/-inf — the
/// form the scans and maintainers each wrote out before they shared Add.
DescriptiveStats ReferenceDescriptive(const std::vector<double>& data) {
  DescriptiveStats s;
  if (data.empty()) return s;
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  for (double x : data) {
    ++s.count;
    s.sum += x;
    double delta = x - s.mean;
    s.mean += delta / double(s.count);
    s.m2 += delta * (x - s.mean);
    if (x < mn) mn = x;
    if (x > mx) mx = x;
  }
  if (mn > mx) mn = mx = std::numeric_limits<double>::quiet_NaN();
  s.min = mn;
  s.max = mx;
  return s;
}

/// One block of the moment fold written out: count, the 4-lane sum
/// (lane i % 4, lanes combined (l0 + l1) + (l2 + l3)), the NaN-skipping
/// first-seen extrema, and m2 as the 4-lane sum of squared deviations
/// about the mean — or, for a constant finite block, the value itself as
/// the mean and a spread of 0.
DescriptiveStats ReferenceBlock(const double* data, size_t n) {
  DescriptiveStats s;
  if (n == 0) return s;
  auto lane_sum = [&](auto term) {
    double lanes[4] = {0, 0, 0, 0};
    for (size_t i = 0; i < n; ++i) lanes[i % 4] += term(data[i]);
    return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  };
  s.count = n;
  s.sum = lane_sum([](double x) { return x; });
  double mn = std::numeric_limits<double>::infinity();
  double mx = -mn;
  for (size_t i = 0; i < n; ++i) {
    if (data[i] < mn) mn = data[i];
    if (data[i] > mx) mx = data[i];
  }
  if (mn == mx && std::isfinite(mn) && !std::isnan(s.sum)) {
    s.mean = mn;
  } else {
    s.mean = s.sum / double(n);
    s.m2 = lane_sum([&](double x) { return (x - s.mean) * (x - s.mean); });
  }
  if (mn > mx) mn = mx = std::numeric_limits<double>::quiet_NaN();
  s.min = mn;
  s.max = mx;
  return s;
}

/// The moment fold written out: blocks of kFoldBlock values, each one
/// merged in order into the running state.
DescriptiveStats ReferenceBlockedFold(const std::vector<double>& data) {
  DescriptiveStats s;
  for (size_t i = 0; i < data.size(); i += kFoldBlock) {
    s.Merge(ReferenceBlock(data.data() + i,
                           std::min(kFoldBlock, data.size() - i)));
  }
  return s;
}

std::vector<double> RandomValues(Rng* rng, size_t n) {
  std::vector<double> out;
  for (size_t i = 0; i < n; ++i) out.push_back(rng->Normal(500.0, 120.0));
  return out;
}

TEST(MomentStateTest, AddThenRemoveRestoresTheMoments) {
  Rng rng(2201);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> base =
        RandomValues(&rng, size_t(rng.UniformInt(1, 300)));
    std::vector<double> extra =
        RandomValues(&rng, size_t(rng.UniformInt(1, 50)));
    DescriptiveStats before = ComputeDescriptive(base);
    DescriptiveStats s = before;
    for (double x : extra) s.Add(x);
    // Remove in reverse order: each Remove inverts the matching Add.
    for (size_t i = extra.size(); i-- > 0;) ASSERT_TRUE(s.Remove(extra[i]));
    EXPECT_EQ(s.count, before.count);
    ExpectClose(s.sum, before.sum);
    ExpectClose(s.mean, before.mean);
    ExpectClose(s.m2, before.m2);
  }
}

TEST(MomentStateTest, RemovingTheLastValueResetsTheState) {
  DescriptiveStats s;
  s.Add(4.5);
  s.Add(-2.0);
  ASSERT_TRUE(s.Remove(-2.0));
  ASSERT_TRUE(s.Remove(4.5));
  ExpectSameState(s, DescriptiveStats{});
  EXPECT_FALSE(s.Remove(1.0));  // empty: nothing to take out
  ExpectSameState(s, DescriptiveStats{});
}

TEST(MomentStateTest, FoldOfAddIsComputeDescriptiveBitForBit) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(2202);
  std::vector<std::vector<double>> cases = {
      {},
      {3.0},
      {nan, 2.0, -1.0},        // a leading NaN is not sticky
      {nan, nan},              // all NaN: NaN extrema
      {-0.0, 0.0, 0.0, -0.0},  // signed zeros keep the first seen
      {inf, 1.0, -inf},
      RandomValues(&rng, 1000),
  };
  // Three whole blocks, the middle one constant, and a short tail.
  std::vector<double> blocks = RandomValues(&rng, 3 * kFoldBlock + 5);
  std::fill(blocks.begin() + kFoldBlock, blocks.begin() + 2 * kFoldBlock, 0.1);
  cases.push_back(blocks);
  // The Add fold is the Welford loop; ComputeDescriptive is the blocked
  // moment fold the scans run.
  for (const std::vector<double>& data : cases) {
    DescriptiveStats folded;
    for (double x : data) folded.Add(x);
    ExpectSameState(folded, ReferenceDescriptive(data));
    ExpectSameState(ComputeDescriptive(data), ReferenceBlockedFold(data));
  }
}

TEST(ComomentStateTest, AddThenRemoveRestoresTheCoMoments) {
  Rng rng(2203);
  for (int trial = 0; trial < 100; ++trial) {
    size_t n = size_t(rng.UniformInt(1, 300));
    std::vector<double> xs = RandomValues(&rng, n);
    std::vector<double> ys = RandomValues(&rng, n);
    ComomentStats before = ComputeComoments(xs, ys);
    ComomentStats s = before;
    std::vector<std::pair<double, double>> extra;
    for (int i = 0; i < 20; ++i) {
      extra.emplace_back(rng.Normal(0, 50), rng.Normal(10, 5));
      s.Add(extra.back().first, extra.back().second);
    }
    for (size_t i = extra.size(); i-- > 0;) {
      ASSERT_TRUE(s.Remove(extra[i].first, extra[i].second));
    }
    EXPECT_EQ(s.n, before.n);
    ExpectClose(s.mean_x, before.mean_x);
    ExpectClose(s.mean_y, before.mean_y);
    ExpectClose(s.m2x, before.m2x);
    ExpectClose(s.m2y, before.m2y);
    ExpectClose(s.cxy, before.cxy);
  }
}

TEST(ComomentStateTest, RemovingTheLastPairResetsTheState) {
  ComomentStats s;
  s.Add(1.0, 2.0);
  ASSERT_TRUE(s.Remove(1.0, 2.0));
  EXPECT_EQ(s.n, 0u);
  EXPECT_EQ(s.mean_x, 0.0);
  EXPECT_EQ(s.mean_y, 0.0);
  EXPECT_EQ(s.m2x, 0.0);
  EXPECT_EQ(s.m2y, 0.0);
  EXPECT_EQ(s.cxy, 0.0);
  EXPECT_FALSE(s.Remove(1.0, 2.0));
}

TEST(ComomentStateTest, SecondMomentsAreTheUnivariateFoldsBitForBit) {
  // The pair state's m2x is the same Welford recurrence as
  // DescriptiveStats' m2, so a constant column is caught exactly.
  Rng rng(2204);
  std::vector<double> xs = RandomValues(&rng, 777);
  std::vector<double> ys = RandomValues(&rng, 777);
  ComomentStats c = ComputeComoments(xs, ys);
  DescriptiveStats dx = ComputeDescriptive(xs);
  DescriptiveStats dy = ComputeDescriptive(ys);
  ExpectSameBits(c.mean_x, dx.mean);
  ExpectSameBits(c.m2x, dx.m2);
  ExpectSameBits(c.mean_y, dy.mean);
  ExpectSameBits(c.m2y, dy.m2);
  ComomentStats constant =
      ComputeComoments({0.1, 0.1, 0.1}, {1.0, 2.0, 4.0});
  EXPECT_EQ(constant.m2x, 0.0);
  EXPECT_FALSE(constant.PearsonR().ok());
}

TEST(ComomentStateTest, SecondMomentsAreTheUnivariateFoldsAcrossBlocks) {
  // Three whole fold blocks and a tail, the middle block of x constant:
  // the pair fold merges its blocks with the same algebra as the
  // univariate fold, so its per-side moments stay bit-identical.
  Rng rng(2206);
  const size_t n = 3 * kFoldBlock + 5;
  std::vector<double> xs = RandomValues(&rng, n);
  std::vector<double> ys = RandomValues(&rng, n);
  std::fill(xs.begin() + kFoldBlock, xs.begin() + 2 * kFoldBlock, 0.1);
  ComomentStats c = ComputeComoments(xs, ys);
  DescriptiveStats dx = ComputeDescriptive(xs);
  DescriptiveStats dy = ComputeDescriptive(ys);
  EXPECT_EQ(c.n, n);
  ExpectSameBits(c.mean_x, dx.mean);
  ExpectSameBits(c.m2x, dx.m2);
  ExpectSameBits(c.mean_y, dy.mean);
  ExpectSameBits(c.m2y, dy.m2);
}

TEST(ValueCountsStateTest, AddThenRemoveRestoresTheCounts) {
  ValueCounts counts;
  for (double x : {1.0, 2.0, 2.0, 3.0, 3.0, 3.0}) counts.Add(x);
  EXPECT_EQ(counts.Distinct(), 3u);
  EXPECT_EQ(counts.ModeValue().value(), 3.0);
  counts.Add(2.0);
  counts.Add(7.0);
  // 2 and 3 now tie; ties break toward the smaller value.
  EXPECT_EQ(counts.ModeValue().value(), 2.0);
  ASSERT_TRUE(counts.Remove(7.0));
  ASSERT_TRUE(counts.Remove(2.0));
  EXPECT_EQ(counts.Distinct(), 3u);
  EXPECT_EQ(counts.ModeValue().value(), 3.0);
  EXPECT_FALSE(counts.Remove(7.0));  // its last copy is gone
  EXPECT_EQ(counts.Distinct(), 3u);
}

TEST(ValueCountsStateTest, RemovingEveryValueEmptiesTheState) {
  ValueCounts counts;
  counts.Add(5.0);
  counts.Add(5.0);
  ASSERT_TRUE(counts.Remove(5.0));
  ASSERT_TRUE(counts.Remove(5.0));
  EXPECT_EQ(counts.Distinct(), 0u);
  EXPECT_FALSE(counts.ModeValue().ok());
  EXPECT_FALSE(counts.Remove(5.0));
}

TEST(WelchStateTest, FinishFromStatesEqualsTheVectorTest) {
  Rng rng(2205);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> a =
        RandomValues(&rng, size_t(rng.UniformInt(2, 200)));
    std::vector<double> b =
        RandomValues(&rng, size_t(rng.UniformInt(2, 200)));
    MomentFold fa, fb;
    fa.Add(a);
    fb.Add(b);
    const DescriptiveStats sa = fa.Finish();
    const DescriptiveStats sb = fb.Finish();
    TestResult want = WelchTTest(a, b).value();
    TestResult got = WelchTTestFromMoments(sa, sb).value();
    ExpectSameBits(got.statistic, want.statistic);
    ExpectSameBits(got.dof, want.dof);
    ExpectSameBits(got.p_value, want.p_value);
  }
  // Domain errors match too.
  DescriptiveStats one, constant;
  one.Add(1.0);
  constant.Add(3.0);
  constant.Add(3.0);
  EXPECT_EQ(WelchTTestFromMoments(one, constant).status().ToString(),
            WelchTTest({1.0}, {3.0, 3.0}).status().ToString());
  EXPECT_EQ(WelchTTestFromMoments(constant, constant).status().ToString(),
            WelchTTest({3.0, 3.0}, {3.0, 3.0}).status().ToString());
}

}  // namespace
}  // namespace statdb
