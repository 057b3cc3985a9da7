#include "stats/histogram.h"

#include <cmath>
#include <vector>

#include "gtest/gtest.h"

namespace statdb {
namespace {

TEST(HistogramTest, BucketsCoverRangeEvenly) {
  auto h = BuildHistogram({0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 5, 0, 10);
  ASSERT_TRUE(h.ok());
  ASSERT_EQ(h->buckets(), 5u);
  ASSERT_EQ(h->edges.size(), 6u);
  EXPECT_DOUBLE_EQ(h->edges.front(), 0.0);
  EXPECT_DOUBLE_EQ(h->edges.back(), 10.0);
  for (uint64_t c : h->counts) EXPECT_EQ(c, 2u);
  EXPECT_EQ(h->TotalCount(), 10u);
}

TEST(HistogramTest, TopEdgeValueLandsInLastBucket) {
  auto h = BuildHistogram({10.0}, 5, 0, 10);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->counts[4], 1u);
  EXPECT_EQ(h->above, 0u);
}

TEST(HistogramTest, OutOfRangeGoesToOverflow) {
  // The paper's "101st bucket ... used for all the values other than the
  // 100 desired values" (§4.2).
  auto h = BuildHistogram({-5, 5, 15}, 10, 0, 10);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->below, 1u);
  EXPECT_EQ(h->above, 1u);
  EXPECT_EQ(h->TotalCount(), 3u);
}

TEST(HistogramTest, BucketOf) {
  auto h = BuildHistogram({}, 4, 0, 8);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->BucketOf(0.0), 0);
  EXPECT_EQ(h->BucketOf(1.99), 0);
  EXPECT_EQ(h->BucketOf(2.0), 1);
  EXPECT_EQ(h->BucketOf(8.0), 3);  // closed top edge
  EXPECT_EQ(h->BucketOf(-0.1), -1);
  EXPECT_EQ(h->BucketOf(8.1), -1);
}

TEST(HistogramTest, AutoRangeSpansMinMax) {
  auto h = BuildHistogramAuto({3, 7, 11}, 4);
  ASSERT_TRUE(h.ok());
  EXPECT_DOUBLE_EQ(h->edges.front(), 3.0);
  EXPECT_DOUBLE_EQ(h->edges.back(), 11.0);
  EXPECT_EQ(h->below, 0u);
  EXPECT_EQ(h->above, 0u);
  EXPECT_EQ(h->TotalCount(), 3u);
}

TEST(HistogramTest, AutoRangeConstantColumn) {
  auto h = BuildHistogramAuto({5, 5, 5}, 3);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->TotalCount(), 3u);
  EXPECT_EQ(h->below + h->above, 0u);
}

// NaN has no bucket (DESIGN.md §14): it counts nowhere. Casting it to a
// bucket index is undefined and wrote far outside the counts.
TEST(HistogramTest, NaNIsSkipped) {
  const double nan = std::nan("");
  auto h = BuildHistogram({1, nan, 3, 9, nan}, 4, 0, 8);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->counts, (std::vector<uint64_t>{1, 1, 0, 0}));
  EXPECT_EQ(h->above, 1u);
  EXPECT_EQ(h->TotalCount(), 3u);
  EXPECT_EQ(h->BucketOf(nan), -1);
  // The range comes from the NaN-skipping min and max.
  auto a = BuildHistogramAuto({nan, 2, 6, nan, 4}, 2);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->edges.front(), 2.0);
  EXPECT_EQ(a->edges.back(), 6.0);
  EXPECT_EQ(a->counts, (std::vector<uint64_t>{1, 2}));
  // All NaN: no range.
  EXPECT_FALSE(BuildHistogramAuto({nan, nan}, 2).ok());
}

TEST(HistogramTest, InvalidArguments) {
  EXPECT_FALSE(BuildHistogram({1}, 0, 0, 1).ok());
  EXPECT_FALSE(BuildHistogram({1}, 5, 3, 3).ok());
  EXPECT_FALSE(BuildHistogramAuto({}, 5).ok());
}

TEST(HistogramTest, ToStringRendersBars) {
  auto h = BuildHistogram({1, 1, 1, 5}, 2, 0, 10);
  ASSERT_TRUE(h.ok());
  std::string s = h->ToString();
  EXPECT_NE(s.find('#'), std::string::npos);
  EXPECT_NE(s.find("[0, 5)"), std::string::npos);
}

}  // namespace
}  // namespace statdb
