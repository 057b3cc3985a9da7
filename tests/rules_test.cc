#include "rules/function_registry.h"
#include "rules/management_db.h"
#include "rules/update_history.h"

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace statdb {
namespace {

TEST(FunctionParamsTest, EncodeIsCanonical) {
  FunctionParams a;
  a.Set("p", 0.5).Set("window", 100);
  FunctionParams b;
  b.Set("window", 100).Set("p", 0.5);
  EXPECT_EQ(a.Encode(), b.Encode());
  EXPECT_EQ(a.Encode(), "p=0.5,window=100");
}

TEST(FunctionParamsTest, DecodeInvertsEncode) {
  FunctionParams p;
  p.Set("lo", 0.05).Set("hi", 0.95);
  auto back = FunctionParams::Decode(p.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ(back->Get("lo").value(), 0.05);
  EXPECT_DOUBLE_EQ(back->Get("hi").value(), 0.95);
  EXPECT_TRUE(FunctionParams::Decode("").value().empty());
  EXPECT_FALSE(FunctionParams::Decode("garbage").ok());
}

TEST(FunctionParamsTest, EncodeKeepsShortTextWhereItRoundTrips) {
  // Keys already stored in Summary Databases stay byte-identical.
  FunctionParams p;
  p.Set("p", 0.05).Set("buckets", 10).Set("big", 1e6).Set("w", 0.1);
  EXPECT_EQ(p.Encode(), "big=1e+06,buckets=10,p=0.05,w=0.1");
}

TEST(FunctionParamsTest, DistinctValuesEncodeToDistinctKeys) {
  // Six significant digits print all three as "0.5".
  FunctionParams a, b, c;
  a.Set("p", 0.5);
  b.Set("p", 0.5000001);
  c.Set("p", 0.5000004);
  EXPECT_EQ(a.Encode(), "p=0.5");
  EXPECT_NE(b.Encode(), a.Encode());
  EXPECT_NE(c.Encode(), b.Encode());
  for (const FunctionParams* fp : {&a, &b, &c}) {
    Result<FunctionParams> back = FunctionParams::Decode(fp->Encode());
    ASSERT_TRUE(back.ok()) << fp->Encode();
    EXPECT_EQ(back->Get("p").value(), fp->Get("p").value());
    EXPECT_EQ(back->Encode(), fp->Encode());
  }
}

TEST(FunctionParamsTest, DecodeRejectsMalformedValuesAsDataLoss) {
  for (const char* bad : {"p=abc", "p=", "p=1e999", "p=0.5x", "p=0.5,q",
                          "p= 0.5"}) {
    Result<FunctionParams> r = FunctionParams::Decode(bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss) << bad;
  }
}

TEST(FunctionParamsTest, GetOrFallsBack) {
  FunctionParams p;
  p.Set("p", 0.25);
  EXPECT_DOUBLE_EQ(p.GetOr("p", 0.5), 0.25);
  EXPECT_DOUBLE_EQ(p.GetOr("missing", 0.5), 0.5);
  EXPECT_FALSE(p.Get("missing").ok());
}

TEST(FunctionRegistryTest, BuiltinsComputeCorrectly) {
  FunctionRegistry reg = FunctionRegistry::WithBuiltins();
  std::vector<double> d = {1, 2, 3, 4, 100};
  EXPECT_DOUBLE_EQ(
      reg.Compute("count", d, {}).value().AsScalar().value(), 5.0);
  EXPECT_DOUBLE_EQ(reg.Compute("sum", d, {}).value().AsScalar().value(),
                   110.0);
  EXPECT_DOUBLE_EQ(reg.Compute("mean", d, {}).value().AsScalar().value(),
                   22.0);
  EXPECT_DOUBLE_EQ(reg.Compute("min", d, {}).value().AsScalar().value(),
                   1.0);
  EXPECT_DOUBLE_EQ(reg.Compute("max", d, {}).value().AsScalar().value(),
                   100.0);
  EXPECT_DOUBLE_EQ(
      reg.Compute("median", d, {}).value().AsScalar().value(), 3.0);
  EXPECT_DOUBLE_EQ(
      reg.Compute("range", d, {}).value().AsScalar().value(), 99.0);
  EXPECT_DOUBLE_EQ(
      reg.Compute("distinct", d, {}).value().AsScalar().value(), 5.0);
  FunctionParams q;
  q.Set("p", 0.25);
  EXPECT_DOUBLE_EQ(
      reg.Compute("quantile", d, q).value().AsScalar().value(), 2.0);
}

TEST(FunctionRegistryTest, VectorAndHistogramResults) {
  FunctionRegistry reg = FunctionRegistry::WithBuiltins();
  std::vector<double> d = {1, 2, 3, 4, 5};
  auto quartiles = reg.Compute("quartiles", d, {});
  ASSERT_TRUE(quartiles.ok());
  const std::vector<double>* v = quartiles->AsVector().value();
  EXPECT_EQ((*v)[1], 3.0);
  FunctionParams hp;
  hp.Set("buckets", 5);
  auto hist = reg.Compute("histogram", d, hp);
  ASSERT_TRUE(hist.ok());
  EXPECT_EQ(hist->AsHistogram().value()->buckets(), 5u);
}

TEST(FunctionRegistryTest, OrderDependenceFlags) {
  FunctionRegistry reg = FunctionRegistry::WithBuiltins();
  EXPECT_FALSE(reg.Find("mean").value()->order_dependent);
  EXPECT_FALSE(reg.Find("sum").value()->order_dependent);
  EXPECT_TRUE(reg.Find("median").value()->order_dependent);
  EXPECT_TRUE(reg.Find("quantile").value()->order_dependent);
}

TEST(FunctionRegistryTest, UnknownFunctionAndDuplicates) {
  FunctionRegistry reg = FunctionRegistry::WithBuiltins();
  EXPECT_FALSE(reg.Find("nope").ok());
  FunctionDescriptor dup;
  dup.name = "mean";
  EXPECT_EQ(reg.Register(std::move(dup)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_GE(reg.Names().size(), 14u);
}

TEST(UpdateHistoryTest, AppendRequiresIncreasingVersions) {
  UpdateHistory h;
  STATDB_ASSERT_OK(h.Append({1, "first", {}}));
  STATDB_ASSERT_OK(h.Append({2, "second", {}}));
  EXPECT_EQ(h.Append({2, "dup", {}}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(h.latest_version(), 2u);
}

TEST(UpdateHistoryTest, EntriesSinceFiltersByVersion) {
  UpdateHistory h;
  STATDB_ASSERT_OK(h.Append({1, "a", {}}));
  STATDB_ASSERT_OK(h.Append({2, "b", {}}));
  STATDB_ASSERT_OK(h.Append({3, "c", {}}));
  auto since = h.EntriesSince(1);
  ASSERT_EQ(since.size(), 2u);
  EXPECT_EQ(since[0]->description, "b");
}

TEST(UpdateHistoryTest, RollbackUndoesNewestFirst) {
  UpdateHistory h;
  // Two updates touching the same cell (row 0 of column 0): v1 sets
  // 10->20, v2 sets 20->30.
  STATDB_ASSERT_OK(h.Append({1, "v1", {{0, {{0, 10, 20}}}}}));
  STATDB_ASSERT_OK(h.Append({2, "v2", {{0, {{0, 20, 30}}}}}));
  std::vector<std::optional<int64_t>> restored;
  STATDB_ASSERT_OK(h.Rollback(0, [&restored](const ChangeSet& set) {
    for (const ColumnChange& ch : set) {
      for (const RawChange& c : ch.cells) restored.push_back(c.old_cell());
    }
    return Status::OK();
  }));
  // Newest first: 20 then 10 — the cell ends at its original value.
  ASSERT_EQ(restored.size(), 2u);
  EXPECT_EQ(restored[0], std::optional<int64_t>(20));
  EXPECT_EQ(restored[1], std::optional<int64_t>(10));
  EXPECT_TRUE(h.entries().empty());
}

TEST(UpdateHistoryTest, PartialRollbackKeepsOlderEntries) {
  UpdateHistory h;
  STATDB_ASSERT_OK(h.Append({1, "a", {{0, {{0, 1, 2}}}}}));
  STATDB_ASSERT_OK(h.Append({2, "b", {{0, {{0, 2, 3}}}}}));
  int undone = 0;
  STATDB_ASSERT_OK(h.Rollback(1, [&undone](const ChangeSet&) {
    ++undone;
    return Status::OK();
  }));
  EXPECT_EQ(undone, 1);
  EXPECT_EQ(h.latest_version(), 1u);
  EXPECT_EQ(h.TotalCellChanges(), 1u);
}

TEST(ManagementDbTest, ViewRegistryAndDuplicateDetection) {
  ManagementDatabase mdb;
  STATDB_ASSERT_OK(mdb.RegisterView("v1", "FROM census WHERE X",
                                    MaintenancePolicy::kIncremental));
  EXPECT_EQ(mdb.RegisterView("v1", "other", MaintenancePolicy::kEager)
                .code(),
            StatusCode::kAlreadyExists);
  // §2.3: an identical definition maps to the existing view.
  auto dup = mdb.FindViewByDefinition("FROM census WHERE X");
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(*dup, "v1");
  EXPECT_FALSE(mdb.FindViewByDefinition("FROM census WHERE Y").ok());
  EXPECT_EQ(mdb.ViewNames().size(), 1u);
  STATDB_ASSERT_OK(mdb.DropView("v1"));
  EXPECT_FALSE(mdb.GetView("v1").ok());
}

TEST(ManagementDbTest, MaintainerFactoryCoversRulebook) {
  ManagementDatabase mdb;
  for (const char* fn : {"count", "sum", "mean", "variance", "min", "max",
                         "median", "mode", "distinct", "histogram"}) {
    EXPECT_TRUE(mdb.HasMaintainer(fn)) << fn;
  }
  // No incremental rule exists for these; they recompute lazily.
  for (const char* fn : {"trimmed_mean", "quartiles", "range",
                         "outside_k_sigma"}) {
    EXPECT_FALSE(mdb.HasMaintainer(fn)) << fn;
  }
  FunctionParams p;
  p.Set("p", 0.9).Set("window", 64);
  auto m = mdb.MakeMaintainer("quantile", p);
  ASSERT_TRUE(m.ok());
  std::vector<double> d;
  for (int i = 0; i <= 100; ++i) d.push_back(i);
  EXPECT_DOUBLE_EQ(
      m.value()->Initialize(d).value().AsScalar().value(), 90.0);
}

TEST(ManagementDbTest, DerivedColumnRules) {
  ManagementDatabase mdb;
  STATDB_ASSERT_OK(mdb.RegisterView("v", "def",
                                    MaintenancePolicy::kIncremental));
  STATDB_ASSERT_OK(mdb.AddDerivedColumn(
      "v", DerivedColumnDef::Local("LOG_INCOME", Log(Col("INCOME")))));
  STATDB_ASSERT_OK(mdb.AddDerivedColumn(
      "v", DerivedColumnDef::Residuals("RESID", "AGE", "INCOME")));
  EXPECT_EQ(mdb.AddDerivedColumn(
                   "v", DerivedColumnDef::ZScores("RESID", "AGE"))
                .code(),
            StatusCode::kAlreadyExists);
  // INCOME updates affect both columns; AGE only the residuals.
  auto on_income = mdb.DerivedColumnsOn("v", "INCOME");
  ASSERT_TRUE(on_income.ok());
  EXPECT_EQ(on_income->size(), 2u);
  auto on_age = mdb.DerivedColumnsOn("v", "AGE");
  ASSERT_TRUE(on_age.ok());
  ASSERT_EQ(on_age->size(), 1u);
  EXPECT_EQ((*on_age)[0]->name, "RESID");
  EXPECT_EQ((*on_age)[0]->kind, DerivedRuleKind::kRegenerate);
  auto on_sex = mdb.DerivedColumnsOn("v", "SEX");
  ASSERT_TRUE(on_sex.ok());
  EXPECT_TRUE(on_sex->empty());
}

TEST(ManagementDbTest, PolicyNames) {
  EXPECT_EQ(MaintenancePolicyName(MaintenancePolicy::kIncremental),
            "incremental");
  EXPECT_EQ(MaintenancePolicyName(MaintenancePolicy::kInvalidate),
            "invalidate");
  EXPECT_EQ(MaintenancePolicyName(MaintenancePolicy::kEager), "eager");
}

}  // namespace
}  // namespace statdb
