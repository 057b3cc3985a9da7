// The function table (rules/function_registry.h) is the one description
// of every statistic: its family, arity, category role, finish and
// incremental rule. These tests hold each path to what the table says:
// a moment's column compute is its finish over a fold, the gate accepts
// and rejects by arity and category role, and the rulebook is exactly
// the set of functions whose descriptor names a rule.

#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/dbms.h"
#include "gtest/gtest.h"
#include "relational/datagen.h"
#include "rules/function_registry.h"
#include "stats/descriptive.h"
#include "tests/test_util.h"

namespace statdb {
namespace {

const FunctionRegistry& Table() {
  static const FunctionRegistry* const kTable =
      new FunctionRegistry(FunctionRegistry::WithBuiltins());
  return *kTable;
}

/// Ordinary, NaN-bearing (leading, inner, all), single-value and empty
/// columns.
std::vector<std::vector<double>> MomentInputs() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::vector<double>> inputs = {
      {},          {7.5},         {nan},     {nan, nan},
      {nan, 3, 1}, {3, nan, -2.5, 1e300},    {2, 2, 2},
  };
  Rng rng(11);
  std::vector<double> wide;
  for (int i = 0; i < 1000; ++i) {
    wide.push_back(rng.Normal(0, 1) * std::pow(10.0, rng.UniformInt(-3, 6)));
  }
  inputs.push_back(wide);
  return inputs;
}

/// Bit for bit, NaN included.
void ExpectSameAnswer(const Result<SummaryResult>& a,
                      const Result<SummaryResult>& b,
                      const std::string& what) {
  ASSERT_EQ(a.ok(), b.ok()) << what;
  if (a.ok()) {
    EXPECT_EQ(a->Serialize(), b->Serialize()) << what;
  } else {
    EXPECT_EQ(a.status().code(), b.status().code()) << what;
    EXPECT_EQ(a.status().message(), b.status().message()) << what;
  }
}

TEST(FunctionTableTest, MomentComputeIsItsFinishOverAFold) {
  size_t moments = 0;
  for (const std::string& name : Table().Names()) {
    const FunctionDescriptor& fn = *Table().Find(name).value();
    if (fn.family != FunctionFamily::kMoments) continue;
    ++moments;
    const std::vector<std::vector<double>> inputs = MomentInputs();
    for (size_t i = 0; i < inputs.size(); ++i) {
      FamilyState folded;
      for (double x : inputs[i]) folded.moments.Add(x);
      ExpectSameAnswer(fn.compute(inputs[i], {}), fn.finish(folded, {}),
                       name + " on input " + std::to_string(i));
    }
  }
  EXPECT_EQ(moments, 8u);
}

TEST(FunctionTableTest, MomentComputeKeepsTheStatsAnswers) {
  auto scalar = [](Result<double> v) -> Result<SummaryResult> {
    if (!v.ok()) return v.status();
    return SummaryResult::Scalar(*v);
  };
  for (const std::vector<double>& d : MomentInputs()) {
    const std::string what = std::to_string(d.size()) + " values";
    ExpectSameAnswer(Table().Compute("count", d, {}),
                     SummaryResult::Scalar(double(d.size())), what);
    ExpectSameAnswer(Table().Compute("sum", d, {}),
                     SummaryResult::Scalar(Sum(d)), what);
    ExpectSameAnswer(Table().Compute("mean", d, {}), scalar(Mean(d)), what);
    ExpectSameAnswer(Table().Compute("variance", d, {}),
                     scalar(Variance(d)), what);
    ExpectSameAnswer(Table().Compute("stddev", d, {}), scalar(StdDev(d)),
                     what);
    ExpectSameAnswer(Table().Compute("min", d, {}), scalar(Min(d)), what);
    ExpectSameAnswer(Table().Compute("max", d, {}), scalar(Max(d)), what);
    Result<double> range =
        d.empty() ? Result<double>(Min(d).status())
                  : Result<double>(Max(d).value() - Min(d).value());
    ExpectSameAnswer(Table().Compute("range", d, {}), scalar(range), what);
  }
}

TEST(FunctionTableTest, RulebookIsTheFunctionsWithARule) {
  std::set<std::string> with_rule;
  for (const std::string& name : Table().Names()) {
    const FunctionDescriptor& fn = *Table().Find(name).value();
    if (fn.rule == nullptr) {
      EXPECT_FALSE(fn.rule_needs_values) << name;
      continue;
    }
    with_rule.insert(name);
    std::vector<std::string> attrs;
    if (fn.arity == 2) attrs = {"X", "Y"};
    auto rule = fn.rule(fn, attrs, FunctionParams());
    ASSERT_TRUE(rule.ok()) << name;
    // A rule seeds from a scan's state exactly when the table says it
    // does not need the column's values.
    EXPECT_EQ((*rule)->Seed(FamilyState{}), !fn.rule_needs_values) << name;
    EXPECT_EQ((*rule)->CoAttribute("X") != nullptr, fn.arity == 2) << name;
  }
  EXPECT_EQ(with_rule,
            (std::set<std::string>{"count", "sum", "mean", "variance", "min",
                                   "max", "median", "quantile", "mode",
                                   "distinct", "histogram", "correlation",
                                   "covariance", "regression"}));
}

class FunctionTableGateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage_ = MakeTapeDiskStorage();
    dbms_ = std::make_unique<StatisticalDbms>(storage_.get());
    CensusOptions opts;
    opts.rows = 400;
    Rng rng(5);
    auto data = GenerateCensusMicrodata(opts, &rng);
    ASSERT_TRUE(data.ok());
    STATDB_ASSERT_OK(dbms_->LoadRawDataSet("census", *data, "synthetic"));
    ViewDefinition def;
    def.source = "census";
    STATDB_ASSERT_OK(
        dbms_->CreateView("v", def, MaintenancePolicy::kIncremental)
            .status());
    no_cache_.cache_result = false;
  }

  static void ExpectRejected(const Result<QueryAnswer>& r, StatusCode code,
                             const std::string& message) {
    ASSERT_FALSE(r.ok()) << message;
    EXPECT_EQ(r.status().code(), code) << message;
    EXPECT_EQ(r.status().message(), message);
  }

  std::unique_ptr<StorageManager> storage_;
  std::unique_ptr<StatisticalDbms> dbms_;
  QueryOptions no_cache_;
};

TEST_F(FunctionTableGateTest, GateFollowsArityAndCategoryRole) {
  for (const std::string& name : Table().Names()) {
    const FunctionDescriptor& fn = *Table().Find(name).value();
    // One value attribute: every one-attribute function, no pair function.
    auto value = dbms_->Query("v", name, "INCOME", {}, no_cache_);
    if (fn.arity == 1) {
      EXPECT_TRUE(value.ok()) << name << ": " << value.status();
    } else {
      ExpectRejected(value, StatusCode::kNotFound, "no function named " + name);
    }
    // One attribute of category codes: only the functions meaningful there.
    auto codes = dbms_->Query("v", name, "SEX", {}, no_cache_);
    if (fn.arity == 1 && fn.on_categories) {
      EXPECT_TRUE(codes.ok()) << name << ": " << codes.status();
    } else {
      ExpectRejected(codes, StatusCode::kInvalidArgument,
                     "summary statistic '" + name +
                         "' is not meaningful for category attribute SEX");
    }
    // A pair of category codes: the pair functions that accept them; a
    // group function only through its group compare.
    auto pair = dbms_->QueryBivariate("v", name, "SEX", "RACE", no_cache_);
    if (fn.arity == 2 && fn.on_categories &&
        fn.family != FunctionFamily::kGroupMoments) {
      EXPECT_TRUE(pair.ok()) << name << ": " << pair.status();
    } else {
      ExpectRejected(pair, StatusCode::kInvalidArgument,
                     "unknown bivariate function " + name);
    }
    // A cross-tab counts integer codes.
    auto reals =
        dbms_->QueryBivariate("v", name, "INCOME", "HOURS_WORKED", no_cache_);
    if (fn.family == FunctionFamily::kCodePairs) {
      ExpectRejected(reals, StatusCode::kInvalidArgument,
                     "bivariate cross-tab needs integer-coded attributes");
    }
  }
  STATDB_ASSERT_OK(
      dbms_->QueryGroupCompare("v", "INCOME", "SEX", 0, 1, no_cache_)
          .status());
  ExpectRejected(dbms_->Query("v", "kurtosis", "INCOME"),
                 StatusCode::kNotFound, "no function named kurtosis");
}

}  // namespace
}  // namespace statdb
