// The one-worker exactness contract (DESIGN.md §14) and the count-
// parameter guard. At one worker the column route folds the moment
// functions into one DescriptiveStats in row order, with or without a
// filter, so every answer equals the registry over the gathered column
// bit for bit; the pair route folds one ComomentStats in row order, so
// QueryBivariate equals QueryBivariateParallel at one worker and the
// co-moment finish of the gathered pairs. A rule a one-worker scan seeds
// holds the bits its Initialize builds. `buckets` and `window` values
// that no allocation can honour are refused, never cast.

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/dbms.h"
#include "gtest/gtest.h"
#include "relational/expr.h"
#include "stats/moment_fold.h"
#include "stats/partial_stats.h"
#include "tests/test_util.h"

namespace statdb {
namespace {

constexpr const char* kMoments[] = {"count",  "sum", "mean", "variance",
                                    "stddev", "min", "max",  "range"};

class OneWorkerRouteTest : public ::testing::Test {
 protected:
  void SetUp() override { Build(MaintenancePolicy::kInvalidate); }

  void Build(MaintenancePolicy policy) {
    dbms_.reset();
    storage_ = MakeTapeDiskStorage();
    dbms_ = std::make_unique<StatisticalDbms>(storage_.get());
    // Pin the column route: the compressed route has its own contract.
    dbms_->set_compressed_scan_enabled(false);
    // Nulls on both numeric columns; more than one inline chunk of rows.
    Table t{Schema({Attribute::Numeric("INCOME"),
                    Attribute::Numeric("AGE", DataType::kInt64)})};
    Rng rng(2206);
    auto maybe = [&rng](Value v) {
      return rng.Bernoulli(0.07) ? Value::Null() : v;
    };
    for (int i = 0; i < 40000; ++i) {
      Row row = {maybe(Value::Real(rng.Normal(41000.0, 9000.0))),
                 maybe(Value::Int(rng.UniformInt(16, 90)))};
      STATDB_ASSERT_OK(t.AppendRow(std::move(row)));
    }
    STATDB_ASSERT_OK(dbms_->LoadRawDataSet("census", t));
    ViewDefinition def;
    def.source = "census";
    STATDB_ASSERT_OK(dbms_->CreateView("v", def, policy).status());
    no_cache_.cache_result = false;
  }

  std::vector<double> Numbers(const std::string& attr) {
    return dbms_->GetView("v").value()->ReadNumericColumn(attr).value();
  }

  Result<SummaryResult> Registry(const std::string& fn,
                                 const std::vector<double>& data,
                                 const FunctionParams& params = {}) {
    return dbms_->management_db().functions().Compute(fn, data, params);
  }

  std::unique_ptr<StorageManager> storage_;
  std::unique_ptr<StatisticalDbms> dbms_;
  QueryOptions no_cache_;
};

TEST_F(OneWorkerRouteTest, MomentsEqualTheRegistryBitForBit) {
  for (const char* attr : {"INCOME", "AGE"}) {
    const std::vector<double> column = Numbers(attr);
    for (const char* fn : kMoments) {
      SummaryResult want = Registry(fn, column).value();
      auto query = dbms_->Query("v", fn, attr, {}, no_cache_);
      STATDB_ASSERT_OK(query);
      EXPECT_EQ(query->result, want) << fn << "(" << attr << ")";
      auto one = dbms_->QueryParallel("v", fn, attr, {}, no_cache_, 1);
      STATDB_ASSERT_OK(one);
      EXPECT_EQ(one->result, want) << fn << "(" << attr << ") at w = 1";
    }
  }
}

TEST_F(OneWorkerRouteTest, FilteredMomentsEqualTheRegistryBitForBit) {
  const std::vector<double> column = Numbers("INCOME");
  const double lo = 30000.0;
  const double hi = 52000.0;
  std::vector<double> in_range;
  for (double x : column) {
    if (x >= lo && x <= hi) in_range.push_back(x);
  }
  ASSERT_GT(in_range.size(), 1000u);
  ASSERT_LT(in_range.size(), column.size());
  const FilterPredicate range =
      FilterPredicate::Range(Value::Real(lo), Value::Real(hi));
  for (const char* fn : kMoments) {
    auto got = dbms_->QueryFiltered("v", fn, "INCOME", range);
    STATDB_ASSERT_OK(got);
    EXPECT_EQ(got->result, Registry(fn, in_range).value()) << fn;
  }
  // A holistic function on the same filter still gathers.
  auto median = dbms_->QueryFiltered("v", "median", "INCOME", range);
  STATDB_ASSERT_OK(median);
  EXPECT_EQ(median->result, Registry("median", in_range).value());
}

TEST_F(OneWorkerRouteTest, CoMomentsAreOneRowOrderFold) {
  // Pairs with either cell null are dropped, as the pair reader does.
  std::vector<Value> income = dbms_->ReadColumn("v", "INCOME").value();
  std::vector<Value> age = dbms_->ReadColumn("v", "AGE").value();
  std::vector<double> xs, ys;
  for (size_t i = 0; i < income.size(); ++i) {
    if (income[i].is_null() || age[i].is_null()) continue;
    xs.push_back(age[i].ToDouble().value());
    ys.push_back(income[i].ToDouble().value());
  }
  FamilyState folded;
  folded.comoments = ComputeComoments(xs, ys);
  const FunctionRegistry& fns = dbms_->management_db().functions();
  for (const char* fn : {"correlation", "covariance", "regression"}) {
    auto serial = dbms_->QueryBivariate("v", fn, "AGE", "INCOME", no_cache_);
    auto one = dbms_->QueryBivariateParallel("v", fn, "AGE", "INCOME",
                                             no_cache_, 1);
    STATDB_ASSERT_OK(serial);
    STATDB_ASSERT_OK(one);
    EXPECT_EQ(serial->result, one->result) << fn;
    EXPECT_EQ(serial->result, fns.Find(fn).value()->finish(folded, {}).value())
        << fn;
  }
}

TEST_F(OneWorkerRouteTest, BadBucketCountsAreRefused) {
  for (double buckets : {-1.0, std::numeric_limits<double>::quiet_NaN(), 0.5,
                         1e15}) {
    FunctionParams params = FunctionParams().Set("buckets", buckets);
    auto serial = dbms_->Query("v", "histogram", "INCOME", params);
    ASSERT_FALSE(serial.ok()) << buckets;
    EXPECT_EQ(serial.status().code(), StatusCode::kInvalidArgument);
    auto parallel =
        dbms_->QueryParallel("v", "histogram", "INCOME", params, {}, 4);
    ASSERT_FALSE(parallel.ok()) << buckets;
    EXPECT_EQ(parallel.status().code(), StatusCode::kInvalidArgument);
    for (size_t workers : {1, 4}) {
      auto many = dbms_->QueryMany(
          "v", {{"mean", "INCOME", {}}, {"histogram", "INCOME", params}}, {},
          workers);
      ASSERT_FALSE(many.ok()) << buckets;
      EXPECT_EQ(many.status().code(), StatusCode::kInvalidArgument);
    }
  }
  // A sane count still answers.
  STATDB_ASSERT_OK(dbms_->Query("v", "histogram", "INCOME",
                                FunctionParams().Set("buckets", 4000))
                       .status());
}

TEST_F(OneWorkerRouteTest, BadWindowRefusesToArmTheMedian) {
  Build(MaintenancePolicy::kIncremental);
  const FunctionParams bad = FunctionParams().Set("window", -1);
  const FunctionParams good = FunctionParams().Set("window", 200);
  // The median itself does not read the window; only its maintainer.
  STATDB_ASSERT_OK(dbms_->Query("v", "median", "INCOME", bad).status());
  STATDB_ASSERT_OK(dbms_->Query("v", "median", "INCOME", good).status());

  UpdateSpec spec;
  spec.column = "INCOME";
  spec.predicate = Lt(Col("AGE"), Lit(int64_t{18}));
  spec.value = Mul(Col("INCOME"), Lit(1.01));
  spec.description = "nudge young incomes";
  STATDB_ASSERT_OK(dbms_->Update("v", spec).status());
  STATDB_ASSERT_OK(dbms_->FlushDeltas("v"));

  SummaryDatabase* summary = dbms_->GetSummaryDb("v").value();
  auto unarmed = summary->Lookup(SummaryKey{"median", {"INCOME"},
                                            bad.Encode()});
  auto armed = summary->Lookup(SummaryKey{"median", {"INCOME"},
                                          good.Encode()});
  STATDB_ASSERT_OK(unarmed);
  STATDB_ASSERT_OK(armed);
  EXPECT_TRUE(unarmed->stale) << "window=-1 armed a maintainer";
  EXPECT_FALSE(armed->stale);
}

// A one-worker scan arms the mean and variance rules by seeding them
// with its moment fold; Initialize over the column builds them with the
// same fold. So a rule armed either way holds the same bits: after the
// same one-cell change, both answer the same, on a column of more than
// three fold blocks with a constant block.
TEST(OneWorkerRuleTest, SeededRulesEqualInitializeBitForBit) {
  std::unique_ptr<StorageManager> storage = MakeTapeDiskStorage();
  StatisticalDbms dbms(storage.get());
  dbms.set_compressed_scan_enabled(false);
  Table t{Schema({Attribute::Numeric("ID", DataType::kInt64),
                  Attribute::Numeric("X")})};
  Rng rng(2207);
  const int rows = 3 * int(kFoldBlock) + 777;
  for (int i = 0; i < rows; ++i) {
    const bool constant = i >= int(kFoldBlock) && i < 2 * int(kFoldBlock);
    STATDB_ASSERT_OK(t.AppendRow(
        {Value::Int(i), Value::Real(constant ? 0.1 : rng.Normal(50.0, 9.0))}));
  }
  STATDB_ASSERT_OK(dbms.LoadRawDataSet("census", t));
  ViewDefinition def;
  def.source = "census";
  STATDB_ASSERT_OK(
      dbms.CreateView("v", def, MaintenancePolicy::kIncremental).status());
  const std::vector<double> column =
      dbms.GetView("v").value()->ReadNumericColumn("X").value();
  ASSERT_EQ(column.size(), size_t(rows));
  for (const char* fn : {"mean", "variance"}) {
    STATDB_ASSERT_OK(dbms.Query("v", fn, "X").status());  // arms the rule
  }

  constexpr int64_t kRow = 5000;  // inside the constant block
  UpdateSpec spec;
  spec.column = "X";
  spec.predicate = Eq(Col("ID"), Lit(kRow));
  spec.value = Lit(7.25);
  spec.description = "one cell";
  STATDB_ASSERT_OK(dbms.Update("v", spec).status());
  STATDB_ASSERT_OK(dbms.FlushDeltas("v"));

  for (const char* fn : {"mean", "variance"}) {
    auto rule = dbms.management_db().MakeMaintainer(fn, {}, {"X"});
    STATDB_ASSERT_OK(rule);
    STATDB_ASSERT_OK((*rule)->Initialize(column).status());
    auto want = (*rule)->Apply(CellDelta::Change(column[kRow], 7.25));
    STATDB_ASSERT_OK(want);
    auto got = dbms.Query("v", fn, "X");
    STATDB_ASSERT_OK(got);
    EXPECT_EQ(got->source, AnswerSource::kCacheHit) << fn;
    EXPECT_EQ(got->result, *want) << fn;
  }
}

}  // namespace
}  // namespace statdb
