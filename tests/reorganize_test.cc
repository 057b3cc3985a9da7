// Tests for §2.7's dynamic reorganization and the cached group-compare
// query: access-pattern tracking, cluster recommendation, physical
// re-sorting that preserves query answers, and Welch-t through the DBMS.

#include <cmath>

#include "core/dbms.h"
#include "gtest/gtest.h"
#include "relational/datagen.h"
#include "stats/tests.h"
#include "storage/rle.h"
#include "tests/test_util.h"

namespace statdb {
namespace {

class ReorganizeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage_ = MakeTapeDiskStorage();
    dbms_ = std::make_unique<StatisticalDbms>(storage_.get());
    CensusOptions opts;
    opts.rows = 4000;
    Rng rng(61);
    raw_ = GenerateCensusMicrodata(opts, &rng).value();
    STATDB_ASSERT_OK(dbms_->LoadRawDataSet("census", raw_));
    ViewDefinition def;
    def.source = "census";
    STATDB_ASSERT_OK(
        dbms_->CreateView("v", def, MaintenancePolicy::kIncremental)
            .status());
  }

  double RleRatioOf(const std::string& attr) {
    auto col = dbms_->GetView("v").value()->ReadColumn(attr).value();
    std::vector<std::optional<int64_t>> cells;
    for (const Value& v : col) {
      cells.push_back(v.is_null() ? std::optional<int64_t>()
                                  : std::optional<int64_t>(
                                        v.ToInt().value()));
    }
    return double(RawColumnBytes(cells.size())) /
           double(RleEncodedBytes(RleEncode(cells)));
  }

  std::unique_ptr<StorageManager> storage_;
  std::unique_ptr<StatisticalDbms> dbms_;
  Table raw_;
};

TEST_F(ReorganizeTest, AccessPatternTracked) {
  ASSERT_TRUE(dbms_->Query("v", "mean", "INCOME").ok());
  ASSERT_TRUE(dbms_->Query("v", "mean", "INCOME").ok());
  ASSERT_TRUE(dbms_->Query("v", "count", "SEX").ok());
  UpdateSpec spec;
  spec.predicate = Eq(Col("RACE"), Lit(int64_t{0}));
  spec.column = "INCOME";
  spec.value = Mul(Col("INCOME"), Lit(1.01));
  ASSERT_TRUE(dbms_->Update("v", spec).ok());
  const ViewTrafficStats* t = dbms_->GetTrafficStats("v").value();
  EXPECT_EQ(t->attribute_accesses.at("INCOME"), 3u);  // 2 queries + update
  EXPECT_EQ(t->attribute_accesses.at("SEX"), 1u);
  EXPECT_EQ(t->attribute_accesses.at("RACE"), 1u);  // predicate reference
}

TEST_F(ReorganizeTest, RecommendsHottestCategoryAttribute) {
  // Before any traffic: nothing to recommend.
  EXPECT_EQ(dbms_->RecommendClusterAttribute("v").status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(dbms_->Query("v", "mean", "INCOME").ok());  // not a category
  EXPECT_FALSE(dbms_->RecommendClusterAttribute("v").ok());
  // Heavy predicate traffic on RACE; lighter on SEX.
  for (int i = 0; i < 3; ++i) {
    UpdateSpec spec;
    spec.predicate = Eq(Col("RACE"), Lit(int64_t{i}));
    spec.column = "INCOME";
    spec.value = Mul(Col("INCOME"), Lit(1.001));
    ASSERT_TRUE(dbms_->Update("v", spec).ok());
  }
  ASSERT_TRUE(dbms_->Query("v", "count", "SEX").ok());
  EXPECT_EQ(dbms_->RecommendClusterAttribute("v").value(), "RACE");
}

TEST_F(ReorganizeTest, ReorganizePreservesAnswersAndClusters) {
  double median_before = dbms_->Query("v", "median", "INCOME")
                             .value()
                             .result.AsScalar()
                             .value();
  double ratio_before = RleRatioOf("RACE");
  STATDB_ASSERT_OK(
      dbms_->ReorganizeView("v", {"RACE", "AGE_GROUP", "SEX"}));
  // Clustering makes the sort columns massively more compressible.
  EXPECT_GT(RleRatioOf("RACE"), ratio_before * 20);
  // Row count and every summary answer are unchanged.
  ConcreteView* view = dbms_->GetView("v").value();
  EXPECT_EQ(view->num_rows(), raw_.num_rows());
  auto median_after = dbms_->Query("v", "median", "INCOME");
  ASSERT_TRUE(median_after.ok());
  EXPECT_EQ(median_after->source, AnswerSource::kCacheHit);
  EXPECT_DOUBLE_EQ(median_after->result.AsScalar().value(), median_before);
  // Fresh computation agrees too.
  QueryOptions no_cache;
  no_cache.cache_result = false;
  // Lookup bypass: remove then recompute.
  STATDB_ASSERT_OK(dbms_->GetSummaryDb("v").value()->Remove(
      SummaryKey::Of("median", "INCOME")));
  auto recomputed = dbms_->Query("v", "median", "INCOME", {}, no_cache);
  ASSERT_TRUE(recomputed.ok());
  EXPECT_DOUBLE_EQ(recomputed->result.AsScalar().value(), median_before);
}

TEST_F(ReorganizeTest, ReorganizeResetsHistoryBaseline) {
  UpdateSpec spec;
  spec.predicate = Gt(Col("AGE"), Lit(int64_t{120}));
  spec.column = "AGE";
  spec.value = nullptr;
  ASSERT_TRUE(dbms_->Update("v", spec).ok());
  STATDB_ASSERT_OK(dbms_->ReorganizeView("v", {"SEX"}));
  const ViewRecord* rec =
      std::as_const(dbms_->management_db()).GetView("v").value();
  EXPECT_TRUE(rec->history.entries().empty());
  EXPECT_EQ(rec->version, 0u);
  EXPECT_EQ(dbms_->GetView("v").value()->version(), 0u);
  // Updates after reorganization work normally.
  UpdateSpec spec2;
  spec2.predicate = Gt(Col("INCOME"), Lit(1e7));
  spec2.column = "INCOME";
  spec2.value = nullptr;
  EXPECT_TRUE(dbms_->Update("v", spec2).ok());
}

TEST_F(ReorganizeTest, GroupCompareMatchesDirectWelch) {
  auto answer = dbms_->QueryGroupCompare("v", "INCOME", "SEX", 0, 1);
  ASSERT_TRUE(answer.ok());
  const std::vector<double>* v = answer->result.AsVector().value();
  ASSERT_EQ(v->size(), 3u);
  // Direct computation.
  std::vector<double> a, b;
  size_t si = raw_.schema().IndexOf("SEX").value();
  size_t ii = raw_.schema().IndexOf("INCOME").value();
  for (size_t r = 0; r < raw_.num_rows(); ++r) {
    if (raw_.At(r, ii).is_null()) continue;
    double income = raw_.At(r, ii).ToDouble().value();
    if (raw_.At(r, si) == Value::Int(0)) a.push_back(income);
    if (raw_.At(r, si) == Value::Int(1)) b.push_back(income);
  }
  TestResult direct = WelchTTest(a, b).value();
  EXPECT_NEAR((*v)[0], direct.statistic, 1e-9);
  EXPECT_NEAR((*v)[2], direct.p_value, 1e-9);
  // Cached on repeat; distinct codes cache separately.
  auto hit = dbms_->QueryGroupCompare("v", "INCOME", "SEX", 0, 1);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->source, AnswerSource::kCacheHit);
  auto other = dbms_->QueryGroupCompare("v", "INCOME", "RACE", 0, 1);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->source, AnswerSource::kComputed);
}

TEST_F(ReorganizeTest, GroupCompareInvalidatedByUpdates) {
  ASSERT_TRUE(dbms_->QueryGroupCompare("v", "INCOME", "SEX", 0, 1).ok());
  UpdateSpec spec;
  spec.predicate = Eq(Col("SEX"), Lit(int64_t{0}));
  spec.column = "INCOME";
  spec.value = Mul(Col("INCOME"), Lit(2.0));
  ASSERT_TRUE(dbms_->Update("v", spec).ok());
  auto after = dbms_->QueryGroupCompare("v", "INCOME", "SEX", 0, 1);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->source, AnswerSource::kComputed);  // stale not served
}

TEST_F(ReorganizeTest, GroupCompareInvalidatedByBatchedUpdates) {
  // Batched maintenance: an update below the flush threshold leaves its
  // deltas pending and the cached Welch t unmarked, so the exact serve
  // must flush first (and then recompute) instead of returning the
  // pre-update t as a fresh hit.
  delta::DeltaConfig config;
  config.default_strategy = delta::MaintenanceStrategy::kDeltaBatched;
  config.adaptive = false;
  dbms_->set_delta_config(config);
  // The post-update audit (on in audit builds) flushes the view, which
  // would hide the pending state this test needs.
  dbms_->set_audit_after_update(false);
  auto before = dbms_->QueryGroupCompare("v", "INCOME", "SEX", 0, 1);
  ASSERT_TRUE(before.ok());
  UpdateSpec spec;
  spec.predicate = Gt(Col("INCOME"), Lit(150000.0));
  spec.column = "INCOME";
  spec.value = Mul(Col("INCOME"), Lit(10.0));
  auto changed = dbms_->Update("v", spec);
  ASSERT_TRUE(changed.ok());
  ASSERT_GT(changed.value(), 0u);
  auto pending = dbms_->PendingDeltas("v");
  ASSERT_TRUE(pending.ok());
  ASSERT_GT(pending.value(), 0u);
  ASSERT_LT(pending.value(), config.flush_threshold);

  auto after = dbms_->QueryGroupCompare("v", "INCOME", "SEX", 0, 1);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->source, AnswerSource::kComputed);
  EXPECT_TRUE(after->exact);
  // The reference: Welch's t over the updated columns.
  auto income = dbms_->GetView("v").value()->ReadColumn("INCOME").value();
  auto sex = dbms_->GetView("v").value()->ReadColumn("SEX").value();
  std::vector<double> men, women;
  for (size_t i = 0; i < income.size(); ++i) {
    if (income[i].is_null() || sex[i].is_null()) continue;
    const int64_t code = sex[i].ToInt().value();
    if (code == 0) men.push_back(income[i].ToDouble().value());
    if (code == 1) women.push_back(income[i].ToDouble().value());
  }
  TestResult want = WelchTTest(men, women).value();
  const std::vector<double>& got = *after->result.AsVector().value();
  EXPECT_EQ(got[0], want.statistic);
  EXPECT_NE(got[0], (*before->result.AsVector().value())[0]);
}

TEST_F(ReorganizeTest, GroupCompareDegenerateGroupFails) {
  EXPECT_FALSE(
      dbms_->QueryGroupCompare("v", "INCOME", "SEX", 0, 42).ok());
}

}  // namespace
}  // namespace statdb
