#include "rules/incremental.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "stats/descriptive.h"
#include "stats/order.h"
#include "tests/test_util.h"

namespace statdb {
namespace {

double ScalarOf(const Result<SummaryResult>& r) {
  EXPECT_TRUE(r.ok()) << r.status();
  if (!r.ok()) return std::nan("");
  auto s = r.value().AsScalar();
  EXPECT_TRUE(s.ok());
  return s.ok() ? *s : std::nan("");
}

TEST(MomentMaintainersTest, SumTracksInsertRemoveReplace) {
  auto m = MakeSumMaintainer();
  EXPECT_DOUBLE_EQ(ScalarOf(m->Initialize({1, 2, 3})), 6.0);
  EXPECT_DOUBLE_EQ(ScalarOf(m->Apply(CellDelta::Fill(4))), 10.0);
  EXPECT_DOUBLE_EQ(ScalarOf(m->Apply(CellDelta::Invalidate(1))), 9.0);
  EXPECT_DOUBLE_EQ(ScalarOf(m->Apply(CellDelta::Change(2, 7))), 14.0);
}

TEST(MomentMaintainersTest, CountIgnoresValues) {
  auto m = MakeCountMaintainer();
  EXPECT_DOUBLE_EQ(ScalarOf(m->Initialize({5, 5, 5})), 3.0);
  EXPECT_DOUBLE_EQ(ScalarOf(m->Apply(CellDelta::Fill(100))), 4.0);
  EXPECT_DOUBLE_EQ(ScalarOf(m->Apply(CellDelta::Invalidate(5))), 3.0);
  // A value change keeps the count.
  EXPECT_DOUBLE_EQ(ScalarOf(m->Apply(CellDelta::Change(5, 9))), 3.0);
}

TEST(MomentMaintainersTest, MeanAndVarianceOnEmptyingColumn) {
  auto m = MakeMeanMaintainer();
  EXPECT_DOUBLE_EQ(ScalarOf(m->Initialize({10})), 10.0);
  // Removing the last value leaves an empty column: Current() errors.
  auto r = m->Apply(CellDelta::Invalidate(10));
  EXPECT_FALSE(r.ok());
}

TEST(MomentMaintainersTest, ApplyBeforeInitializeFails) {
  auto m = MakeSumMaintainer();
  EXPECT_FALSE(m->Apply(CellDelta::Fill(1)).ok());
}

TEST(ExtremumMaintainerTest, InsertTracksNewMin) {
  auto m = MakeMinMaintainer();
  EXPECT_DOUBLE_EQ(ScalarOf(m->Initialize({5, 3, 8})), 3.0);
  EXPECT_DOUBLE_EQ(ScalarOf(m->Apply(CellDelta::Fill(1))), 1.0);
  EXPECT_DOUBLE_EQ(ScalarOf(m->Apply(CellDelta::Fill(2))), 1.0);
}

TEST(ExtremumMaintainerTest, DeletingNonExtremumIsCheap) {
  auto m = MakeMinMaintainer();
  ASSERT_TRUE(m->Initialize({5, 3, 8}).ok());
  EXPECT_DOUBLE_EQ(ScalarOf(m->Apply(CellDelta::Invalidate(8))), 3.0);
  EXPECT_EQ(m->stats().applies, 1u);
  EXPECT_EQ(m->stats().rebuilds, 1u);  // only the Initialize
}

TEST(ExtremumMaintainerTest, DeletingLastExtremumForcesRebuild) {
  auto m = MakeMinMaintainer();
  ASSERT_TRUE(m->Initialize({5, 3, 8}).ok());
  auto r = m->Apply(CellDelta::Invalidate(3));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  // Rebuild recovers.
  EXPECT_DOUBLE_EQ(ScalarOf(m->Initialize({5, 8})), 5.0);
}

TEST(ExtremumMaintainerTest, DuplicateExtremumSurvivesOneDelete) {
  auto m = MakeMinMaintainer();
  ASSERT_TRUE(m->Initialize({3, 3, 8}).ok());
  EXPECT_DOUBLE_EQ(ScalarOf(m->Apply(CellDelta::Invalidate(3))), 3.0);
  EXPECT_FALSE(m->Apply(CellDelta::Invalidate(3)).ok());
}

TEST(ExtremumMaintainerTest, ReplacingExtremumWithBetterValueIsCheap) {
  auto m = MakeMaxMaintainer();
  ASSERT_TRUE(m->Initialize({5, 3, 8}).ok());
  EXPECT_DOUBLE_EQ(ScalarOf(m->Apply(CellDelta::Change(8, 12))), 12.0);
}

TEST(ExtremumMaintainerTest, MaxMirrorsMin) {
  auto m = MakeMaxMaintainer();
  EXPECT_DOUBLE_EQ(ScalarOf(m->Initialize({5, 3, 8})), 8.0);
  EXPECT_DOUBLE_EQ(ScalarOf(m->Apply(CellDelta::Invalidate(3))), 8.0);
  EXPECT_FALSE(m->Apply(CellDelta::Invalidate(8)).ok());
}

TEST(ExtremumMaintainerTest, EmptyColumnFails) {
  auto m = MakeMinMaintainer();
  EXPECT_FALSE(m->Initialize({}).ok());
}

TEST(OrderStatWindowTest, MedianSlidesUnderSmallUpdates) {
  auto m = MakeMedianWindowMaintainer(100);
  std::vector<double> data;
  for (int i = 1; i <= 1001; ++i) data.push_back(i);
  EXPECT_DOUBLE_EQ(ScalarOf(m->Initialize(data)), 501.0);
  // Replace the smallest value by a large one: the sorted column becomes
  // {2..1001, 2000} and the middle element (rank 500) is now 502.
  EXPECT_DOUBLE_EQ(ScalarOf(m->Apply(CellDelta::Change(1, 2000))), 502.0);
  EXPECT_GE(m->stats().window_slides, 1u);
}

TEST(OrderStatWindowTest, PointerRunsOffWindowForcesRegeneration) {
  auto m = MakeMedianWindowMaintainer(10);
  std::vector<double> data;
  for (int i = 1; i <= 1000; ++i) data.push_back(i);
  ASSERT_TRUE(m->Initialize(data).ok());
  // Push the median up by replacing many small values with huge ones; the
  // target rank eventually leaves the 10-value window.
  bool exhausted = false;
  for (int i = 1; i <= 100; ++i) {
    auto r = m->Apply(CellDelta::Change(i, 5000 + i));
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
      exhausted = true;
      break;
    }
  }
  EXPECT_TRUE(exhausted);
}

// Boundary tests for the rank-vs-window-edge refusal condition
// (`lo_rank < below_ || hi_rank >= below_ + window_.size()`). Data 0..99
// with window_cap 10 carves window [44..55] (12 slots, below_ = 44,
// above_ = 44); the median pointer is then walked exactly to each edge.
TEST(OrderStatWindowTest, RankWalkedToFirstCachedSlotStillAnswers) {
  auto m = MakeMedianWindowMaintainer(10);
  std::vector<double> data;
  for (int i = 0; i < 100; ++i) data.push_back(i);
  EXPECT_DOUBLE_EQ(ScalarOf(m->Initialize(data)), 49.5);
  // Deleting above-window values (99 down) shrinks n, walking the target
  // rank down. After the 11th deletion n = 89 and the median is rank 44 —
  // exactly the FIRST cached slot (lo_rank == below_). Must still answer.
  for (int k = 1; k <= 11; ++k) {
    auto r = m->Apply(CellDelta::Invalidate(100 - k));
    ASSERT_TRUE(r.ok()) << "deletion " << k << ": " << r.status();
    if (k == 11) {
      EXPECT_DOUBLE_EQ(ScalarOf(r), 44.0);  // median of 0..88
    }
  }
  // One more deletion puts lo_rank = 43 < below_ = 44: one past the edge
  // must refuse with FAILED_PRECONDITION, not serve a wrong slot.
  auto off = m->Apply(CellDelta::Invalidate(88));
  ASSERT_FALSE(off.ok());
  EXPECT_EQ(off.status().code(), StatusCode::kFailedPrecondition);
}

TEST(OrderStatWindowTest, RankWalkedToLastCachedSlotStillAnswers) {
  auto m = MakeMedianWindowMaintainer(10);
  std::vector<double> data;
  for (int i = 0; i < 100; ++i) data.push_back(i);
  EXPECT_DOUBLE_EQ(ScalarOf(m->Initialize(data)), 49.5);
  // Deleting below-window values (0 up) decrements below_, walking the
  // target toward the window's LAST slot. After the 11th deletion n = 89,
  // below_ = 33 and the median is rank 44 = window slot 11 (the last one:
  // hi_rank == below_ + window size - 1). Must still answer.
  for (int k = 0; k < 11; ++k) {
    auto r = m->Apply(CellDelta::Invalidate(k));
    ASSERT_TRUE(r.ok()) << "deletion " << k << ": " << r.status();
    if (k == 10) {
      EXPECT_DOUBLE_EQ(ScalarOf(r), 55.0);  // median of 11..99
    }
  }
  // The 12th deletion needs hi_rank = 44 >= below_(32) + 12: one past the
  // last slot must refuse.
  auto off = m->Apply(CellDelta::Invalidate(11));
  ASSERT_FALSE(off.ok());
  EXPECT_EQ(off.status().code(), StatusCode::kFailedPrecondition);
}

TEST(OrderStatWindowTest, SinglePassRebuildUsedWhenRangeStillBrackets) {
  auto m = MakeMedianWindowMaintainer(20);
  std::vector<double> data;
  for (int i = 1; i <= 1000; ++i) data.push_back(i);
  ASSERT_TRUE(m->Initialize(data).ok());
  EXPECT_EQ(m->stats().single_pass_rebuilds, 0u);
  // Keep replacing small values with huge ones: the median rank climbs
  // out of the 20-value window, forcing rebuilds — but each new median
  // is only a few ranks above the old window, so the rebuild must take
  // the single-pass path (§4.2's claim), not a full sort.
  std::vector<double> current = data;
  int rebuilds = 0;
  for (int i = 0; i < 200; ++i) {
    double old = current[i];
    double fresh = 5000.0 + i;
    auto r = m->Apply(CellDelta::Change(old, fresh));
    current[i] = fresh;
    if (!r.ok()) {
      ASSERT_TRUE(m->Initialize(current).ok());
      ++rebuilds;
    }
  }
  ASSERT_GE(rebuilds, 1);
  EXPECT_GE(m->stats().single_pass_rebuilds, 1u);
  // Each rebuild answer matches the ground truth.
  EXPECT_DOUBLE_EQ(m->Current().value().AsScalar().value(),
                   Median(current).value());
}

// E6 (§4.2): under a seeded drifting stream the pointer absorbs most
// updates, and every regeneration takes the single pass over the data
// that the old window's bracket allows. The final median is exact.
TEST(OrderStatWindowTest, DriftingStreamRegeneratesInOnePassOnly) {
  Rng rng(3);
  std::vector<double> column;
  for (int i = 0; i < 20'000; ++i) column.push_back(rng.Normal(30000, 8000));
  auto m = MakeMedianWindowMaintainer(100);
  ASSERT_TRUE(m->Initialize(column).ok());
  const uint64_t initial = m->stats().rebuilds;
  for (int u = 0; u < 2'000; ++u) {
    const size_t idx = size_t(rng.UniformInt(0, int64_t(column.size()) - 1));
    // Half the updates draw from a distribution whose mean climbs.
    const double fresh = rng.Bernoulli(0.5) ? rng.Normal(30000 + u * 40.0, 8000)
                                            : rng.Normal(30000, 8000);
    const CellDelta delta = CellDelta::Change(column[idx], fresh);
    column[idx] = fresh;
    if (!m->Apply(delta).ok()) {
      ASSERT_TRUE(m->Initialize(column).ok());
    }
  }
  EXPECT_EQ(m->stats().rebuilds - initial, 8u);
  EXPECT_EQ(m->stats().single_pass_rebuilds, 8u);
  EXPECT_EQ(m->stats().window_slides, 1'992u);
  EXPECT_DOUBLE_EQ(ScalarOf(m->Current()), Median(column).value());
}

TEST(OrderStatWindowTest, QuantileP95Tracks) {
  auto m = MakeOrderStatWindowMaintainer(0.95, 50);
  std::vector<double> data;
  for (int i = 0; i < 1000; ++i) data.push_back(i);
  double expected = Quantile(data, 0.95).value();
  EXPECT_DOUBLE_EQ(ScalarOf(m->Initialize(data)), expected);
}

TEST(OrderStatWindowTest, EmptyColumnFails) {
  auto m = MakeMedianWindowMaintainer(10);
  EXPECT_FALSE(m->Initialize({}).ok());
}

// ---------------------------------------------------------------------------
// The central §4.2 property: every maintainer, fed a random update stream
// (with rebuild-on-demand), must agree with full recomputation at every
// step.

struct MaintainerCase {
  std::string name;
  std::function<std::unique_ptr<IncrementalMaintainer>()> make;
  std::function<double(const std::vector<double>&)> reference;
  double tolerance;
};

class MaintainerEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

std::vector<MaintainerCase> Cases() {
  return {
      {"count", MakeCountMaintainer,
       [](const std::vector<double>& d) { return double(d.size()); }, 0.0},
      {"sum", MakeSumMaintainer,
       [](const std::vector<double>& d) { return Sum(d); }, 1e-6},
      {"mean", MakeMeanMaintainer,
       [](const std::vector<double>& d) { return Mean(d).value_or(0); },
       1e-9},
      {"variance", MakeVarianceMaintainer,
       [](const std::vector<double>& d) {
         return Variance(d).value_or(0);
       },
       1e-6},
      {"min", MakeMinMaintainer,
       [](const std::vector<double>& d) { return Min(d).value_or(0); },
       0.0},
      {"max", MakeMaxMaintainer,
       [](const std::vector<double>& d) { return Max(d).value_or(0); },
       0.0},
      {"median", [] { return MakeMedianWindowMaintainer(30); },
       [](const std::vector<double>& d) { return Median(d).value_or(0); },
       1e-12},
      {"p10", [] { return MakeOrderStatWindowMaintainer(0.1, 30); },
       [](const std::vector<double>& d) {
         return Quantile(d, 0.1).value_or(0);
       },
       1e-12},
      {"p95", [] { return MakeOrderStatWindowMaintainer(0.95, 30); },
       [](const std::vector<double>& d) {
         return Quantile(d, 0.95).value_or(0);
       },
       1e-12},
  };
}

TEST_P(MaintainerEquivalenceTest, AgreesWithFullRecomputeUnderRandomStream) {
  auto [seed, case_idx] = GetParam();
  MaintainerCase mc = Cases()[case_idx];
  Rng rng(seed);

  // The simulated column: values present (by multiset) + their cells.
  std::vector<double> column;
  for (int i = 0; i < 200; ++i) {
    column.push_back(std::round(rng.UniformDouble(0, 1000)) / 10.0);
  }
  auto m = mc.make();
  ASSERT_TRUE(m->Initialize(column).ok());

  for (int step = 0; step < 400; ++step) {
    int action = static_cast<int>(rng.UniformInt(0, 9));
    CellDelta delta;
    if (action < 6 && !column.empty()) {  // change a cell
      size_t idx = size_t(rng.UniformInt(0, int64_t(column.size()) - 1));
      double fresh = std::round(rng.UniformDouble(0, 1000)) / 10.0;
      delta = CellDelta::Change(column[idx], fresh);
      column[idx] = fresh;
    } else if (action < 8 && column.size() > 5) {  // invalidate a cell
      size_t idx = size_t(rng.UniformInt(0, int64_t(column.size()) - 1));
      delta = CellDelta::Invalidate(column[idx]);
      column.erase(column.begin() + idx);
    } else {  // fill a missing cell
      double fresh = std::round(rng.UniformDouble(0, 1000)) / 10.0;
      delta = CellDelta::Fill(fresh);
      column.push_back(fresh);
    }
    Result<SummaryResult> r = m->Apply(delta);
    if (!r.ok()) {
      // Auxiliary state exhausted: rebuild from the full column, exactly
      // as the DBMS would.
      ASSERT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
      r = m->Initialize(column);
      ASSERT_TRUE(r.ok()) << r.status();
    }
    double expected = mc.reference(column);
    double actual = r.value().AsScalar().value();
    ASSERT_NEAR(actual, expected, mc.tolerance)
        << mc.name << " diverged at step " << step;
  }
  // The cheap path must dominate: far fewer rebuilds than applies.
  EXPECT_LT(m->stats().rebuilds * 5, m->stats().applies + 10)
      << mc.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllMaintainers, MaintainerEquivalenceTest,
    ::testing::Combine(::testing::Range(1, 5),
                       ::testing::Range(0, 9)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& param_info) {
      return Cases()[std::get<1>(param_info.param)].name + "_seed" +
             std::to_string(std::get<0>(param_info.param));
    });

}  // namespace
}  // namespace statdb
