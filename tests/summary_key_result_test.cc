#include "summary/summary_key.h"
#include "summary/summary_result.h"

#include <cmath>
#include <cstring>
#include <vector>

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace statdb {
namespace {

TEST(SummaryKeyTest, EncodeClustersOnAttribute) {
  SummaryKey key = SummaryKey::Of("median", "INCOME");
  EXPECT_EQ(key.Encode(), "INCOME|median|");
  // All keys for INCOME share the attribute prefix — the clustering the
  // paper asks for.
  EXPECT_EQ(key.Encode().rfind(SummaryKey::AttributePrefix("INCOME"), 0),
            0u);
}

TEST(SummaryKeyTest, ParamsDistinguishKeys) {
  SummaryKey p05 = SummaryKey::Of("quantile", "INCOME", "p=0.05");
  SummaryKey p95 = SummaryKey::Of("quantile", "INCOME", "p=0.95");
  EXPECT_NE(p05.Encode(), p95.Encode());
}

TEST(SummaryKeyTest, MultiAttributeEncode) {
  SummaryKey key{"correlation", {"INCOME", "AGE"}, ""};
  EXPECT_EQ(key.Encode(), "INCOME,AGE|correlation|");
}

TEST(SummaryKeyTest, DecodeInvertsEncode) {
  SummaryKey key{"quantile", {"INCOME", "AGE"}, "p=0.25"};
  auto back = SummaryKey::Decode(key.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, key);
}

TEST(SummaryKeyTest, DecodeMalformedFails) {
  EXPECT_FALSE(SummaryKey::Decode("no separators here").ok());
  EXPECT_FALSE(SummaryKey::Decode("one|separator").ok());
}

TEST(SummaryKeyTest, ToStringReadable) {
  SummaryKey key = SummaryKey::Of("quantile", "INCOME", "p=0.05");
  EXPECT_EQ(key.ToString(), "quantile(INCOME; p=0.05)");
}

TEST(SummaryResultTest, ScalarRoundTrip) {
  SummaryResult r = SummaryResult::Scalar(29933.0);
  EXPECT_DOUBLE_EQ(r.AsScalar().value(), 29933.0);
  auto back = SummaryResult::Deserialize(r.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, r);
  // Wrong-kind accessors fail.
  EXPECT_FALSE(r.AsVector().ok());
  EXPECT_FALSE(r.AsHistogram().ok());
}

TEST(SummaryResultTest, VectorRoundTrip) {
  SummaryResult r = SummaryResult::Vector({1.5, 2.5, 3.5});
  auto back = SummaryResult::Deserialize(r.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, r);
  EXPECT_EQ(back->AsVector().value()->size(), 3u);
}

TEST(SummaryResultTest, HistogramRoundTrip) {
  Histogram h;
  h.edges = {0, 10, 20};
  h.counts = {7, 3};
  h.below = 1;
  h.above = 2;
  SummaryResult r = SummaryResult::Histo(h);
  auto back = SummaryResult::Deserialize(r.Serialize());
  ASSERT_TRUE(back.ok());
  const Histogram* hb = back->AsHistogram().value();
  EXPECT_EQ(hb->counts, h.counts);
  EXPECT_EQ(hb->edges, h.edges);
  EXPECT_EQ(hb->below, 1u);
  EXPECT_EQ(hb->above, 2u);
}

// Equal-width edges encode as their two ends and counts as varints: a
// 2,000-bucket histogram of small counts takes about 2 KB, where eight
// bytes per edge and per count took 32 KB. The round trip is exact.
TEST(SummaryResultTest, EqualWidthHistogramEncodesCompactly) {
  std::vector<double> data;
  for (int i = 0; i < 200'000; ++i) data.push_back(double(i % 9973) / 7.0);
  Histogram h = BuildHistogramAuto(data, 2000).value();
  h.above = uint64_t{1} << 40;  // a wide varint
  SummaryResult r = SummaryResult::Histo(h);
  const std::vector<uint8_t> bytes = r.Serialize();
  EXPECT_LT(bytes.size(), 2 * 2000 + 64u);
  auto back = SummaryResult::Deserialize(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, r);
  const Histogram* hb = back->AsHistogram().value();
  ASSERT_EQ(hb->edges.size(), h.edges.size());
  EXPECT_EQ(std::memcmp(hb->edges.data(), h.edges.data(),
                        h.edges.size() * sizeof(double)),
            0);
  EXPECT_EQ(hb->counts, h.counts);
  EXPECT_EQ(hb->above, h.above);
  // One edge off the equal-width grid: every edge is kept.
  h.edges[1] = std::nextafter(h.edges[1], 1e9);
  auto off = SummaryResult::Deserialize(SummaryResult::Histo(h).Serialize());
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off->AsHistogram().value()->edges, h.edges);
}

TEST(SummaryResultTest, ModelRoundTrip) {
  LinearFit fit;
  fit.slope = 2.0;
  fit.intercept = -1.0;
  fit.r_squared = 0.93;
  fit.residual_stddev = 1.7;
  fit.n = 123;
  SummaryResult r = SummaryResult::Model(fit);
  auto back = SummaryResult::Deserialize(r.Serialize());
  ASSERT_TRUE(back.ok());
  const LinearFit* fb = back->AsModel().value();
  EXPECT_DOUBLE_EQ(fb->slope, 2.0);
  EXPECT_EQ(fb->n, 123u);
}

TEST(SummaryResultTest, CrossTabRoundTrip) {
  CrossTab ct;
  ct.row_labels = {Value::Int(0), Value::Int(1)};
  ct.col_labels = {Value::Str("M"), Value::Str("F"), Value::Str("?")};
  ct.counts = {{1, 2, 3}, {4, 5, 6}};
  SummaryResult r = SummaryResult::Contingency(ct);
  auto back = SummaryResult::Deserialize(r.Serialize());
  ASSERT_TRUE(back.ok());
  const CrossTab* cb = back->AsCrossTab().value();
  EXPECT_EQ(cb->counts[1][2], 6u);
  EXPECT_EQ(cb->col_labels[0], Value::Str("M"));
}

TEST(SummaryResultTest, TextRoundTrip) {
  SummaryResult r = SummaryResult::Text("analysis stalled on outliers");
  auto back = SummaryResult::Deserialize(r.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back->AsText().value(), "analysis stalled on outliers");
}

TEST(SummaryResultTest, TruncatedBytesFail) {
  auto bytes = SummaryResult::Vector({1, 2, 3}).Serialize();
  bytes.resize(bytes.size() - 4);
  EXPECT_FALSE(SummaryResult::Deserialize(bytes).ok());
  // A vector length the bytes cannot hold fails before anything is sized.
  auto huge = SummaryResult::Vector({1, 2, 3}).Serialize();
  std::memset(huge.data() + 1, 0xFF, 4);
  EXPECT_EQ(SummaryResult::Deserialize(huge).status().code(),
            StatusCode::kDataLoss);
}

TEST(SummaryResultTest, EqualityIsStructural) {
  EXPECT_EQ(SummaryResult::Scalar(1.0), SummaryResult::Scalar(1.0));
  EXPECT_FALSE(SummaryResult::Scalar(1.0) == SummaryResult::Scalar(2.0));
  EXPECT_FALSE(SummaryResult::Scalar(1.0) ==
               SummaryResult::Vector({1.0}));
}

TEST(SummaryResultTest, ToStringForms) {
  EXPECT_EQ(SummaryResult::Scalar(5).ToString(), "5");
  EXPECT_EQ(SummaryResult::Vector({1, 2}).ToString(), "[1, 2]");
  EXPECT_NE(SummaryResult::Text("note").ToString().find("note"),
            std::string::npos);
}

}  // namespace
}  // namespace statdb
