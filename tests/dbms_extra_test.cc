// Coverage for the later DBMS additions: sqrt/exp expressions, DropView,
// extra inference rules, cache_result opt-out, and non-numeric update
// fallback.

#include <cmath>

#include "common/bytes.h"

#include "core/dbms.h"
#include "gtest/gtest.h"
#include "relational/datagen.h"
#include "stats/order.h"
#include "tests/test_util.h"

namespace statdb {
namespace {

TEST(ExprMathTest, SqrtAndExp) {
  Schema schema({Attribute::Numeric("X", DataType::kDouble)});
  Row row = {Value::Real(9.0)};
  EXPECT_DOUBLE_EQ(Sqrt(Col("X"))->Eval(row, schema).value().AsReal(),
                   3.0);
  EXPECT_NEAR(Exp(Lit(1.0))->Eval(row, schema).value().AsReal(),
              std::exp(1.0), 1e-12);
  // sqrt of a negative is a missing value, not an error.
  Row neg = {Value::Real(-4.0)};
  EXPECT_TRUE(Sqrt(Col("X"))->Eval(neg, schema).value().is_null());
  // Null propagates.
  Row null_row = {Value::Null()};
  EXPECT_TRUE(Exp(Col("X"))->Eval(null_row, schema).value().is_null());
  // ToString and serde cover the new ops.
  EXPECT_EQ(Sqrt(Col("X"))->ToString(), "sqrt(X)");
  ByteWriter w;
  Exp(Sqrt(Col("X")))->Serialize(&w);
  ByteReader r(w.bytes());
  EXPECT_EQ(Expr::Deserialize(&r).value()->ToString(), "exp(sqrt(X))");
}

class DbmsExtraTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage_ = MakeTapeDiskStorage();
    dbms_ = std::make_unique<StatisticalDbms>(storage_.get());
    CensusOptions opts;
    opts.rows = 1000;
    Rng rng(81);
    STATDB_ASSERT_OK(dbms_->LoadRawDataSet(
        "census", GenerateCensusMicrodata(opts, &rng).value()));
    ViewDefinition def;
    def.source = "census";
    STATDB_ASSERT_OK(
        dbms_->CreateView("v", def, MaintenancePolicy::kIncremental)
            .status());
  }

  std::unique_ptr<StorageManager> storage_;
  std::unique_ptr<StatisticalDbms> dbms_;
};

TEST_F(DbmsExtraTest, DropViewRemovesEverything) {
  ASSERT_TRUE(dbms_->Query("v", "mean", "INCOME").ok());
  STATDB_ASSERT_OK(dbms_->DropView("v"));
  EXPECT_TRUE(dbms_->ViewNames().empty());
  EXPECT_FALSE(dbms_->GetView("v").ok());
  EXPECT_FALSE(dbms_->Query("v", "mean", "INCOME").ok());
  EXPECT_FALSE(dbms_->catalog().GetDataSet("v").ok());
  EXPECT_EQ(dbms_->DropView("v").code(), StatusCode::kNotFound);
  // The name and, importantly, the definition become reusable.
  ViewDefinition def;
  def.source = "census";
  auto again =
      dbms_->CreateView("v", def, MaintenancePolicy::kInvalidate);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->reused);
}

TEST_F(DbmsExtraTest, CacheOptOutDoesNotInsert) {
  QueryOptions no_cache;
  no_cache.cache_result = false;
  ASSERT_TRUE(dbms_->Query("v", "mean", "INCOME", {}, no_cache).ok());
  EXPECT_EQ(dbms_->GetSummaryDb("v").value()->entry_count(), 0u);
  auto second = dbms_->Query("v", "mean", "INCOME", {}, no_cache);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->source, AnswerSource::kComputed);
}

TEST_F(DbmsExtraTest, CountFromSumAndMeanInference) {
  ASSERT_TRUE(dbms_->Query("v", "sum", "INCOME").ok());
  ASSERT_TRUE(dbms_->Query("v", "mean", "INCOME").ok());
  QueryOptions inf;
  inf.allow_inference = true;
  inf.cache_result = false;
  auto count = dbms_->Query("v", "count", "INCOME", {}, inf);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->source, AnswerSource::kInferred);
  EXPECT_NEAR(count->result.AsScalar().value(), 1000.0, 1e-6);
}

TEST_F(DbmsExtraTest, VarianceEstimateFromHistogram) {
  ASSERT_TRUE(dbms_->Query("v", "histogram", "AGE",
                           FunctionParams().Set("buckets", 30))
                  .ok());
  // The histogram key carries its params; cache one under default params
  // too so the inference rule's probe finds it.
  ASSERT_TRUE(dbms_->Query("v", "histogram", "AGE").ok());
  QueryOptions inf;
  inf.allow_inference = true;
  inf.allow_estimates = true;
  inf.cache_result = false;
  auto var = dbms_->Query("v", "variance", "AGE", {}, inf);
  ASSERT_TRUE(var.ok());
  EXPECT_EQ(var->source, AnswerSource::kInferred);
  EXPECT_FALSE(var->exact);
  QueryOptions direct;
  direct.cache_result = false;
  double truth = dbms_->Query("v", "variance", "AGE", {}, direct)
                     .value()
                     .result.AsScalar()
                     .value();
  // Midpoint estimate is coarse but must be in the right ballpark.
  EXPECT_NEAR(var->result.AsScalar().value() / truth, 1.0, 0.25);
}

TEST_F(DbmsExtraTest, StringColumnUpdateFallsBackToInvalidation) {
  // Build a tiny view with a string attribute via a custom raw set.
  Table t{Schema({Attribute::Category("NAME", DataType::kString),
                  Attribute::Numeric("X", DataType::kDouble)})};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        t.AppendRow({Value::Str(i % 2 == 0 ? "even" : "odd"),
                     Value::Real(double(i))})
            .ok());
  }
  STATDB_ASSERT_OK(dbms_->LoadRawDataSet("named", t));
  ViewDefinition def;
  def.source = "named";
  STATDB_ASSERT_OK(
      dbms_->CreateView("named_v", def, MaintenancePolicy::kIncremental)
          .status());
  ASSERT_TRUE(dbms_->Query("named_v", "mean", "X").ok());
  // Updating the string column succeeds and is logged.
  UpdateSpec spec;
  spec.predicate = Eq(Col("NAME"), Lit("odd"));
  spec.column = "NAME";
  spec.value = Lit("ODD");
  auto changed = dbms_->Update("named_v", spec);
  ASSERT_TRUE(changed.ok());
  EXPECT_EQ(*changed, 5u);
  auto col = dbms_->GetView("named_v").value()->ReadColumn("NAME").value();
  EXPECT_EQ(col[1], Value::Str("ODD"));
  // Rollback restores the strings.
  STATDB_ASSERT_OK(dbms_->Rollback("named_v", 0));
  col = dbms_->GetView("named_v").value()->ReadColumn("NAME").value();
  EXPECT_EQ(col[1], Value::Str("odd"));
}

TEST_F(DbmsExtraTest, DerivedColumnWithSqrt) {
  STATDB_ASSERT_OK(dbms_->AddDerivedColumn(
      "v", DerivedColumnDef::Local("SQRT_INCOME", Sqrt(Col("INCOME")))));
  auto col = dbms_->ReadColumn("v", "SQRT_INCOME");
  ASSERT_TRUE(col.ok());
  auto incomes = dbms_->GetView("v").value()->ReadColumn("INCOME").value();
  for (size_t i = 0; i < 20; ++i) {
    if (incomes[i].is_null()) continue;
    EXPECT_NEAR((*col)[i].AsReal(),
                std::sqrt(incomes[i].ToDouble().value()), 1e-9);
  }
}

// Parameters that print alike at six significant digits are still
// distinct Summary Database keys: a quantile cached for one p is never
// served as an exact hit for another.
TEST(SummaryParamKeyTest, NearbyQuantilesDoNotShareACacheEntry) {
  auto storage = MakeTapeDiskStorage();
  StatisticalDbms dbms(storage.get());
  Table t(Schema({Attribute::Numeric("X", DataType::kDouble)}));
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) {
    xs.push_back(i * 1000.0);
    STATDB_ASSERT_OK(t.AppendRow({Value::Real(xs.back())}));
  }
  STATDB_ASSERT_OK(dbms.LoadRawDataSet("raw", t));
  ViewDefinition def;
  def.source = "raw";
  STATDB_ASSERT_OK(
      dbms.CreateView("v", def, MaintenancePolicy::kIncremental).status());

  for (double p : {0.5000001, 0.5000004, 0.5}) {
    FunctionParams params;
    params.Set("p", p);
    Result<QueryAnswer> a = dbms.Query("v", "quantile", "X", params);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    EXPECT_EQ(a->source, AnswerSource::kComputed) << "p=" << p;
    EXPECT_EQ(a->result.AsScalar().value(), Quantile(xs, p).value())
        << "p=" << p;
  }
}

}  // namespace
}  // namespace statdb
