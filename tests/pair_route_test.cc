// Parity of the pair route's cross-tab and group-compare finishes: the
// DBMS answers of crosstab, chi2_independence and welch_t, through every
// entry point that reaches them, equal stats/ run directly over the
// view's columns read as Values.

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/dbms.h"
#include "gtest/gtest.h"
#include "stats/crosstab.h"
#include "stats/tests.h"
#include "tests/test_util.h"

namespace statdb {
namespace {

constexpr int64_t kTwoTo53 = int64_t{1} << 53;

class PairRouteParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage_ = MakeTapeDiskStorage();
    dbms_ = std::make_unique<StatisticalDbms>(storage_.get());
    // Nulls on either side of every pair; negative and sparse codes; a
    // double-typed category; a code past double's exact range.
    Table t{Schema({Attribute::Category("RACE"), Attribute::Category("SEX"),
                    Attribute::Numeric("INCOME"),
                    Attribute::Category("SCORE", DataType::kDouble),
                    Attribute::Category("BIG")})};
    Rng rng(5);
    auto maybe = [&rng](Value v) {
      return rng.Bernoulli(0.06) ? Value::Null() : v;
    };
    for (int i = 0; i < 3000; ++i) {
      Row row = {maybe(Value::Int(rng.UniformInt(0, 5) * 3 - 4)),
                 maybe(Value::Int(rng.UniformInt(0, 1))),
                 maybe(Value::Real(rng.Normal(40000, 9000))),
                 maybe(Value::Real(double(rng.UniformInt(0, 3)) + 0.5)),
                 Value::Int(i == 17 ? kTwoTo53 + 1 : rng.UniformInt(0, 2))};
      STATDB_ASSERT_OK(t.AppendRow(std::move(row)));
    }
    // The out-of-range code's row must reach the finish.
    STATDB_ASSERT_OK(t.SetCell(17, 1, Value::Int(1)));
    STATDB_ASSERT_OK(t.SetCell(17, 2, Value::Real(1.0)));
    STATDB_ASSERT_OK(dbms_->LoadRawDataSet("census", t));
    ViewDefinition def;
    def.source = "census";
    STATDB_ASSERT_OK(
        dbms_->CreateView("v", def, MaintenancePolicy::kIncremental)
            .status());
    no_cache_.cache_result = false;
  }

  std::vector<Value> Column(const std::string& attr) {
    return dbms_->ReadColumn("v", attr).value();
  }

  /// stats/ over the two columns: BuildCrossTab, then the chi-squared
  /// test for chi2_independence.
  SummaryResult ExpectedCrossTab(const std::string& fn, const std::string& a,
                                 const std::string& b) {
    std::vector<Value> va = Column(a);
    std::vector<Value> vb = Column(b);
    Table pair{Schema({Attribute::Category(a), Attribute::Category(b)})};
    for (size_t i = 0; i < va.size(); ++i) {
      EXPECT_TRUE(pair.AppendRow({va[i], vb[i]}).ok());
    }
    CrossTab ct = BuildCrossTab(pair, a, b).value();
    if (fn == "crosstab") return SummaryResult::Contingency(std::move(ct));
    TestResult t = ChiSquaredIndependence(ct).value();
    return SummaryResult::Vector({t.statistic, t.dof, t.p_value});
  }

  /// stats/ over the two columns: WelchTTest of the values whose
  /// category cell truncates to code_a against those that truncate to
  /// code_b, skipping rows with either cell null.
  SummaryResult ExpectedWelch(const std::string& value_attr,
                              const std::string& category_attr,
                              int64_t code_a, int64_t code_b) {
    std::vector<Value> v = Column(value_attr);
    std::vector<Value> c = Column(category_attr);
    std::vector<double> ga, gb;
    for (size_t i = 0; i < v.size(); ++i) {
      if (v[i].is_null() || c[i].is_null()) continue;
      int64_t code = c[i].ToInt().value();
      if (code == code_a) ga.push_back(v[i].ToDouble().value());
      if (code == code_b) gb.push_back(v[i].ToDouble().value());
    }
    TestResult t = WelchTTest(ga, gb).value();
    return SummaryResult::Vector({t.statistic, t.dof, t.p_value});
  }

  std::unique_ptr<StorageManager> storage_;
  std::unique_ptr<StatisticalDbms> dbms_;
  QueryOptions no_cache_;
};

TEST_F(PairRouteParityTest, CrossTabAndChi2MatchStatsAtEveryWorkerCount) {
  for (const char* fn : {"crosstab", "chi2_independence"}) {
    for (auto [a, b] : std::vector<std::pair<std::string, std::string>>{
             {"RACE", "SEX"}, {"SEX", "RACE"}, {"RACE", "RACE"}}) {
      SummaryResult want = ExpectedCrossTab(fn, a, b);
      auto serial = dbms_->QueryBivariate("v", fn, a, b, no_cache_);
      STATDB_ASSERT_OK(serial);
      EXPECT_EQ(serial->result, want) << fn << "(" << a << "," << b << ")";
      auto parallel =
          dbms_->QueryBivariateParallel("v", fn, a, b, no_cache_, 2);
      STATDB_ASSERT_OK(parallel);
      EXPECT_EQ(parallel->result, want) << fn << "(" << a << "," << b << ")";
      // The cached answer is the computed one.
      auto cached = dbms_->QueryBivariate("v", fn, a, b);
      STATDB_ASSERT_OK(cached);
      EXPECT_EQ(cached->result, want);
    }
  }
}

TEST_F(PairRouteParityTest, CrossTabSkipsRowsWithEitherCellNull) {
  auto r = dbms_->QueryBivariate("v", "crosstab", "RACE", "SEX", no_cache_);
  STATDB_ASSERT_OK(r);
  std::vector<Value> race = Column("RACE");
  std::vector<Value> sex = Column("SEX");
  uint64_t both = 0, either_null = 0;
  for (size_t i = 0; i < race.size(); ++i) {
    (race[i].is_null() || sex[i].is_null() ? either_null : both) += 1;
  }
  ASSERT_GT(either_null, 0u);
  EXPECT_EQ(r->result.AsCrossTab().value()->Total(), both);
  // Labels come out in ascending code order, negatives first.
  const CrossTab* ct = r->result.AsCrossTab().value();
  ASSERT_EQ(ct->row_labels.size(), 6u);
  EXPECT_EQ(ct->row_labels.front(), Value::Int(-4));
  EXPECT_EQ(ct->row_labels.back(), Value::Int(11));
}

TEST_F(PairRouteParityTest, WelchTMatchesStats) {
  for (auto [cat, a, b] : std::vector<std::tuple<std::string, int64_t,
                                                 int64_t>>{
           {"SEX", 0, 1}, {"RACE", -4, 8}, {"SCORE", 1, 3}}) {
    auto got = dbms_->QueryGroupCompare("v", "INCOME", cat, a, b, no_cache_);
    STATDB_ASSERT_OK(got);
    EXPECT_EQ(got->result, ExpectedWelch("INCOME", cat, a, b)) << cat;
  }
}

TEST_F(PairRouteParityTest, CrossTabOfADoubleAttributeIsRejected) {
  for (const char* fn : {"crosstab", "chi2_independence"}) {
    for (auto [a, b] : std::vector<std::pair<std::string, std::string>>{
             {"RACE", "INCOME"}, {"SCORE", "SEX"}}) {
      auto serial = dbms_->QueryBivariate("v", fn, a, b);
      ASSERT_FALSE(serial.ok());
      EXPECT_EQ(serial.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(serial.status().ToString().find("integer-coded"),
                std::string::npos);
      auto parallel = dbms_->QueryBivariateParallel("v", fn, a, b, {}, 2);
      ASSERT_FALSE(parallel.ok());
      EXPECT_EQ(parallel.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST_F(PairRouteParityTest, UnknownAttributeFails) {
  Status not_found = Schema().IndexOf("NOPE").status();
  for (const char* fn : {"crosstab", "chi2_independence"}) {
    auto serial = dbms_->QueryBivariate("v", fn, "RACE", "NOPE");
    ASSERT_FALSE(serial.ok());
    EXPECT_EQ(serial.status().code(), not_found.code());
    auto parallel =
        dbms_->QueryBivariateParallel("v", fn, "NOPE", "SEX", {}, 2);
    ASSERT_FALSE(parallel.ok());
    EXPECT_EQ(parallel.status().code(), not_found.code());
  }
  auto value = dbms_->QueryGroupCompare("v", "NOPE", "SEX", 0, 1);
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), not_found.code());
  auto category = dbms_->QueryGroupCompare("v", "INCOME", "NOPE", 0, 1);
  ASSERT_FALSE(category.ok());
  EXPECT_EQ(category.status().code(), not_found.code());
}

TEST_F(PairRouteParityTest, CodeOutsideDoublesExactRangeFails) {
  // 2^53 + 1 reads back through double as 2^53: counting it would put
  // the row under the wrong label, so the query fails instead.
  auto ct = dbms_->QueryBivariate("v", "crosstab", "BIG", "SEX");
  ASSERT_FALSE(ct.ok());
  EXPECT_EQ(ct.status().code(), StatusCode::kInvalidArgument);
  auto welch = dbms_->QueryGroupCompare("v", "INCOME", "BIG", 0, 1);
  ASSERT_FALSE(welch.ok());
  EXPECT_EQ(welch.status().code(), StatusCode::kInvalidArgument);
}

// The cross-tab's count state (stats/crosstab.h) over more rows than
// one inline chunk holds (64 pages of 500 cells): codes outside the
// 64 x 64 grid that first appear after row 32,000, and a code past
// double's exact range late in the column, at one and two workers.
class CrossTabStateTest : public ::testing::Test {
 protected:
  static constexpr int kRows = 40000;

  void SetUp() override {
    storage_ = MakeTapeDiskStorage();
    dbms_ = std::make_unique<StatisticalDbms>(storage_.get());
    Table t{Schema({Attribute::Category("A"), Attribute::Category("B"),
                    Attribute::Category("BIG")})};
    Rng rng(6);
    auto maybe = [&rng](Value v) {
      return rng.Bernoulli(0.03) ? Value::Null() : v;
    };
    for (int i = 0; i < kRows; ++i) {
      int64_t a = rng.UniformInt(0, 5);
      if (i > 32500 && rng.Bernoulli(0.3)) a = rng.UniformInt(64, 66);
      int64_t b = rng.UniformInt(0, 2);
      if (i > 33000 && rng.Bernoulli(0.1)) b = -3;
      int64_t big = i == 38000 ? kTwoTo53 + 1 : rng.UniformInt(0, 3);
      STATDB_ASSERT_OK(t.AppendRow({maybe(Value::Int(a)),
                                    maybe(Value::Int(b)), Value::Int(big)}));
    }
    STATDB_ASSERT_OK(t.SetCell(38000, 0, Value::Int(1)));
    STATDB_ASSERT_OK(dbms_->LoadRawDataSet("census", t));
    ViewDefinition def;
    def.source = "census";
    STATDB_ASSERT_OK(
        dbms_->CreateView("v", def, MaintenancePolicy::kIncremental)
            .status());
    no_cache_.cache_result = false;
  }

  /// CountCodePairs over the two columns' non-null pairs, read as Values.
  Result<CrossTab> Counted(const std::string& a, const std::string& b) {
    std::vector<Value> va = dbms_->ReadColumn("v", a).value();
    std::vector<Value> vb = dbms_->ReadColumn("v", b).value();
    std::vector<double> xs, ys;
    for (size_t i = 0; i < va.size(); ++i) {
      if (va[i].is_null() || vb[i].is_null()) continue;
      xs.push_back(double(va[i].AsInt()));
      ys.push_back(double(vb[i].AsInt()));
    }
    return CountCodePairs(xs, ys);
  }

  /// The answers at one and at two workers.
  std::vector<Result<QueryAnswer>> Answers(const std::string& fn,
                                           const std::string& a,
                                           const std::string& b) {
    std::vector<Result<QueryAnswer>> out;
    out.push_back(dbms_->QueryBivariate("v", fn, a, b, no_cache_));
    out.push_back(dbms_->QueryBivariateParallel("v", fn, a, b, no_cache_, 2));
    return out;
  }

  std::unique_ptr<StorageManager> storage_;
  std::unique_ptr<StatisticalDbms> dbms_;
  QueryOptions no_cache_;
};

TEST_F(CrossTabStateTest, LateLargeCodesCountAtEveryWorkerCount) {
  for (auto [a, b] : std::vector<std::pair<std::string, std::string>>{
           {"A", "B"}, {"B", "A"}}) {
    CrossTab want = Counted(a, b).value();
    // The late codes reach the table: 64..66 on A's side, -3 on B's.
    const std::vector<Value>& a_labels =
        a == "A" ? want.row_labels : want.col_labels;
    const std::vector<Value>& b_labels =
        a == "A" ? want.col_labels : want.row_labels;
    EXPECT_EQ(a_labels.back(), Value::Int(66));
    EXPECT_EQ(b_labels.front(), Value::Int(-3));
    TestResult chi2 = ChiSquaredIndependence(want).value();
    const SummaryResult want_chi2 =
        SummaryResult::Vector({chi2.statistic, chi2.dof, chi2.p_value});
    for (const Result<QueryAnswer>& got : Answers("crosstab", a, b)) {
      STATDB_ASSERT_OK(got);
      EXPECT_EQ(got->result, SummaryResult::Contingency(want)) << a << b;
    }
    for (const Result<QueryAnswer>& got :
         Answers("chi2_independence", a, b)) {
      STATDB_ASSERT_OK(got);
      EXPECT_EQ(got->result, want_chi2) << a << b;
    }
  }
}

TEST_F(CrossTabStateTest, LateInexactCodeFailsAtEveryWorkerCount) {
  const Status want = Counted("BIG", "A").status();
  ASSERT_EQ(want.code(), StatusCode::kInvalidArgument);
  for (const char* fn : {"crosstab", "chi2_independence"}) {
    for (auto [a, b] : std::vector<std::pair<std::string, std::string>>{
             {"BIG", "A"}, {"A", "BIG"}}) {
      for (const Result<QueryAnswer>& got : Answers(fn, a, b)) {
        ASSERT_FALSE(got.ok()) << fn << "(" << a << "," << b << ")";
        EXPECT_EQ(got.status().code(), want.code());
        EXPECT_EQ(got.status().message(), want.message());
      }
    }
  }
}

}  // namespace
}  // namespace statdb
