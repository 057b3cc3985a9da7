// Table-driven matrix over the QueryOptions staleness/inference knobs:
// allow_stale × max_version_lag × allow_inference × allow_estimates.
// One stale mean entry (cached at v0, view advanced to v2 under the
// kInvalidate policy) plus fresh sum/count/histogram entries pin down
// which answer source every combination must produce — and the serial
// and parallel query paths must agree on all of them.

#include "core/dbms.h"

#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "relational/datagen.h"
#include "tests/test_util.h"

namespace statdb {
namespace {

const char* SourceName(AnswerSource s) {
  switch (s) {
    case AnswerSource::kCacheHit: return "cache-hit";
    case AnswerSource::kStaleCacheHit: return "stale-cache-hit";
    case AnswerSource::kInferred: return "inferred";
    case AnswerSource::kComputed: return "computed";
  }
  return "?";
}

class QueryOptionsMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage_ = MakeTapeDiskStorage();
    dbms_ = std::make_unique<StatisticalDbms>(storage_.get());
    CensusOptions opts;
    opts.rows = 1500;
    Rng rng(55);
    Table raw = GenerateCensusMicrodata(opts, &rng).value();
    STATDB_ASSERT_OK(dbms_->LoadRawDataSet("census", raw));
    ViewDefinition def;
    def.source = "census";
    ASSERT_TRUE(
        dbms_->CreateView("v", def, MaintenancePolicy::kInvalidate).ok());

    // Cache mean(INCOME) at v0; two updates advance the view to v2 and
    // (kInvalidate) mark the entry stale with view_version=0 — a lag of
    // exactly 2 versions.
    STATDB_ASSERT_OK(dbms_->Query("v", "mean", "INCOME", {}, {}).status());
    for (int i = 0; i < 2; ++i) {
      UpdateSpec spec;
      spec.column = "INCOME";
      spec.predicate = Gt(Col("INCOME"), Lit(30000.0 + 10000.0 * i));
      spec.value = Mul(Col("INCOME"), Lit(1.05));
      spec.description = "raise high incomes";
      auto n = dbms_->Update("v", spec);
      STATDB_ASSERT_OK(n);
      ASSERT_GT(n.value(), 0u);
    }
    ASSERT_EQ(dbms_->GetView("v").value()->version(), 2u);

    // Fresh sum/count at v2 arm the exact mean = sum/count inference
    // rule; a fresh histogram arms the estimate-only variance rule.
    STATDB_ASSERT_OK(dbms_->Query("v", "sum", "INCOME", {}, {}).status());
    STATDB_ASSERT_OK(dbms_->Query("v", "count", "INCOME", {}, {}).status());
    STATDB_ASSERT_OK(
        dbms_->Query("v", "histogram", "INCOME", {}, {}).status());
  }

  std::unique_ptr<StorageManager> storage_;
  std::unique_ptr<StatisticalDbms> dbms_;
};

struct MatrixCase {
  bool allow_stale;
  uint64_t max_version_lag;
  bool allow_inference;
  bool allow_estimates;
  AnswerSource expected;
  bool expected_exact;
};

TEST_F(QueryOptionsMatrixTest, StalenessMatrixForMean) {
  // The stale mean entry lags the view by exactly 2 versions, and exact
  // inference (mean = sum/count) is armed. Consultation order is
  // fresh-cache -> stale-under-policy -> inference -> compute.
  const std::vector<MatrixCase> cases = {
      // No relaxations: full recompute.
      {false, 0, false, false, AnswerSource::kComputed, true},
      // allow_stale serves the stale entry no matter the lag.
      {true, 0, false, false, AnswerSource::kStaleCacheHit, false},
      {true, 5, true, true, AnswerSource::kStaleCacheHit, false},
      // Bounded staleness: lag 2 is inside a >=2 budget, outside 1.
      {false, 1, false, false, AnswerSource::kComputed, true},
      {false, 2, false, false, AnswerSource::kStaleCacheHit, false},
      {false, 3, false, false, AnswerSource::kStaleCacheHit, false},
      // Too-stale entries fall through to exact inference when allowed
      // (exact rules need no allow_estimates).
      {false, 1, true, false, AnswerSource::kInferred, true},
      {false, 0, true, false, AnswerSource::kInferred, true},
      {false, 0, true, true, AnswerSource::kInferred, true},
  };

  for (const MatrixCase& c : cases) {
    QueryOptions opts;
    opts.allow_stale = c.allow_stale;
    opts.max_version_lag = c.max_version_lag;
    opts.allow_inference = c.allow_inference;
    opts.allow_estimates = c.allow_estimates;
    opts.cache_result = false;  // probes must not disturb the next row
    SCOPED_TRACE(std::string("allow_stale=") +
                 (c.allow_stale ? "1" : "0") + " lag=" +
                 std::to_string(c.max_version_lag) + " inference=" +
                 (c.allow_inference ? "1" : "0") + " estimates=" +
                 (c.allow_estimates ? "1" : "0"));

    auto serial = dbms_->Query("v", "mean", "INCOME", {}, opts);
    STATDB_ASSERT_OK(serial);
    EXPECT_EQ(SourceName(serial.value().source), SourceName(c.expected));
    EXPECT_EQ(serial.value().exact, c.expected_exact);

    // The parallel path consults cache/staleness/inference identically.
    auto parallel =
        dbms_->QueryParallel("v", "mean", "INCOME", {}, opts, 4);
    STATDB_ASSERT_OK(parallel);
    EXPECT_EQ(SourceName(parallel.value().source), SourceName(c.expected));
    EXPECT_EQ(parallel.value().exact, c.expected_exact);
  }
}

TEST_F(QueryOptionsMatrixTest, StalenessMatrixForBivariateAndGroupCompare) {
  // The same matrix over the multi-attribute entry points: a correlation
  // and a Welch t cached at v2, then two INCOME updates mark both stale
  // with a lag of exactly 2. No inference rule derives them, so rows
  // that would infer a mean recompute here instead.
  STATDB_ASSERT_OK(
      dbms_->QueryBivariate("v", "correlation", "AGE", "INCOME").status());
  auto welch = dbms_->QueryGroupCompare("v", "INCOME", "SEX", 0, 1);
  STATDB_ASSERT_OK(welch);
  for (int i = 0; i < 2; ++i) {
    UpdateSpec spec;
    spec.column = "INCOME";
    spec.predicate = Lt(Col("INCOME"), Lit(20000.0 + 5000.0 * i));
    spec.value = Mul(Col("INCOME"), Lit(1.1));
    STATDB_ASSERT_OK(dbms_->Update("v", spec).status());
  }
  ASSERT_EQ(dbms_->GetView("v").value()->version(), 4u);

  const std::vector<MatrixCase> cases = {
      {false, 0, false, false, AnswerSource::kComputed, true},
      {true, 0, false, false, AnswerSource::kStaleCacheHit, false},
      {true, 5, true, true, AnswerSource::kStaleCacheHit, false},
      {false, 1, false, false, AnswerSource::kComputed, true},
      {false, 2, false, false, AnswerSource::kStaleCacheHit, false},
      {false, 3, false, false, AnswerSource::kStaleCacheHit, false},
      {false, 1, true, false, AnswerSource::kComputed, true},
      {false, 0, true, true, AnswerSource::kComputed, true},
  };
  for (const MatrixCase& c : cases) {
    QueryOptions opts;
    opts.allow_stale = c.allow_stale;
    opts.max_version_lag = c.max_version_lag;
    opts.allow_inference = c.allow_inference;
    opts.allow_estimates = c.allow_estimates;
    opts.cache_result = false;  // probes must not disturb the next row
    SCOPED_TRACE(std::string("allow_stale=") +
                 (c.allow_stale ? "1" : "0") + " lag=" +
                 std::to_string(c.max_version_lag) + " inference=" +
                 (c.allow_inference ? "1" : "0") + " estimates=" +
                 (c.allow_estimates ? "1" : "0"));

    std::vector<std::pair<std::string, Result<QueryAnswer>>> got;
    got.emplace_back("bivariate", dbms_->QueryBivariate(
                                      "v", "correlation", "AGE", "INCOME",
                                      opts));
    got.emplace_back("bivariate_parallel",
                     dbms_->QueryBivariateParallel("v", "correlation", "AGE",
                                                   "INCOME", opts, 4));
    got.emplace_back("group_compare", dbms_->QueryGroupCompare(
                                          "v", "INCOME", "SEX", 0, 1, opts));
    for (const auto& [entry, answer] : got) {
      STATDB_ASSERT_OK(answer);
      EXPECT_EQ(SourceName(answer.value().source), SourceName(c.expected))
          << entry;
      EXPECT_EQ(answer.value().exact, c.expected_exact) << entry;
    }
    // A stale serve returns the value cached before the updates.
    if (c.expected == AnswerSource::kStaleCacheHit) {
      EXPECT_EQ(got[2].second.value().result, welch.value().result);
    } else {
      EXPECT_NE(got[2].second.value().result, welch.value().result);
    }
  }
}

TEST_F(QueryOptionsMatrixTest, EstimateInferenceNeedsAllowEstimates) {
  // No variance entry exists; the only inference route is the histogram
  // midpoint rule, which is an estimate.
  QueryOptions opts;
  opts.allow_inference = true;
  opts.allow_estimates = false;
  opts.cache_result = false;
  auto strict = dbms_->Query("v", "variance", "INCOME", {}, opts);
  STATDB_ASSERT_OK(strict);
  EXPECT_EQ(strict.value().source, AnswerSource::kComputed);
  EXPECT_TRUE(strict.value().exact);

  opts.allow_estimates = true;
  auto loose = dbms_->Query("v", "variance", "INCOME", {}, opts);
  STATDB_ASSERT_OK(loose);
  EXPECT_EQ(loose.value().source, AnswerSource::kInferred);
  EXPECT_FALSE(loose.value().exact);
  EXPECT_FALSE(loose.value().derivation.empty());

  auto parallel = dbms_->QueryParallel("v", "variance", "INCOME", {}, opts,
                                       4);
  STATDB_ASSERT_OK(parallel);
  EXPECT_EQ(parallel.value().source, AnswerSource::kInferred);
  EXPECT_FALSE(parallel.value().exact);
}

TEST_F(QueryOptionsMatrixTest, StaleHitServesTheOldValueInferenceTheNew) {
  // The stale mean predates both updates; inference derives the current
  // mean from fresh sum/count. The two must differ (the updates scaled
  // incomes up) and the inferred value must match a full recompute.
  QueryOptions stale_opts;
  stale_opts.allow_stale = true;
  stale_opts.cache_result = false;
  QueryOptions infer_opts;
  infer_opts.allow_inference = true;
  infer_opts.cache_result = false;
  QueryOptions compute_opts;
  compute_opts.cache_result = false;

  double stale = dbms_->Query("v", "mean", "INCOME", {}, stale_opts)
                     .value()
                     .result.AsScalar()
                     .value();
  double inferred = dbms_->Query("v", "mean", "INCOME", {}, infer_opts)
                        .value()
                        .result.AsScalar()
                        .value();
  double computed = dbms_->Query("v", "mean", "INCOME", {}, compute_opts)
                        .value()
                        .result.AsScalar()
                        .value();
  EXPECT_NE(stale, computed);
  EXPECT_NEAR(inferred, computed, 1e-9 * std::abs(computed));
}

TEST_F(QueryOptionsMatrixTest, CacheResultFalseLeavesNoEntry) {
  QueryOptions opts;
  opts.cache_result = false;
  STATDB_ASSERT_OK(
      dbms_->Query("v", "median", "INCOME", {}, opts).status());
  SummaryKey key{"median", {"INCOME"}, ""};
  EXPECT_FALSE(dbms_->GetSummaryDb("v").value()->Lookup(key).ok());

  // And with the default (cache_result=true) the entry appears.
  STATDB_ASSERT_OK(dbms_->Query("v", "median", "INCOME", {}, {}).status());
  EXPECT_TRUE(dbms_->GetSummaryDb("v").value()->Lookup(key).ok());
}

}  // namespace
}  // namespace statdb
