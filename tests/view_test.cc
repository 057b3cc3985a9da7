#include "core/view.h"
#include "core/view_def.h"

#include <cmath>

#include "gtest/gtest.h"
#include "relational/datagen.h"
#include "stats/order.h"
#include "tests/cell_changes.h"
#include "tests/test_util.h"

namespace statdb {
namespace {

Result<Table> Census(uint64_t rows, uint64_t seed = 21) {
  CensusOptions opts;
  opts.rows = rows;
  Rng rng(seed);
  return GenerateCensusMicrodata(opts, &rng);
}

TEST(ViewDefTest, CanonicalFormsDifferWithContent) {
  ViewDefinition a;
  a.source = "census";
  a.predicate = Gt(Col("INCOME"), Lit(1000.0));
  ViewDefinition b = a;
  EXPECT_EQ(a.Canonical(), b.Canonical());
  b.predicate = Gt(Col("INCOME"), Lit(2000.0));
  EXPECT_NE(a.Canonical(), b.Canonical());
  b = a;
  b.projection = {"INCOME"};
  EXPECT_NE(a.Canonical(), b.Canonical());
  b = a;
  b.sample_fraction = 0.5;
  EXPECT_NE(a.Canonical(), b.Canonical());
}

TEST(ViewDefTest, MaterializeAppliesPipelineInOrder) {
  auto raw = Census(2000);
  ASSERT_TRUE(raw.ok());
  ViewDefinition def;
  def.source = "census";
  def.predicate = Gt(Col("AGE"), Lit(int64_t{40}));
  def.projection = {"SEX", "INCOME"};
  auto out = def.Materialize(*raw);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_columns(), 2u);
  EXPECT_LT(out->num_rows(), raw->num_rows());
  EXPECT_GT(out->num_rows(), 0u);
}

TEST(ViewDefTest, MaterializeWithSampleIsDeterministic) {
  auto raw = Census(2000);
  ASSERT_TRUE(raw.ok());
  ViewDefinition def;
  def.source = "census";
  def.sample_fraction = 0.3;
  def.sample_seed = 99;
  auto a = def.Materialize(*raw);
  auto b = def.Materialize(*raw);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->num_rows(), b->num_rows());
  EXPECT_GT(a->num_rows(), 400u);
  EXPECT_LT(a->num_rows(), 800u);
}

// E9 (§2.2): a 5% sample of 100,000 rows at a fixed seed keeps 4,986,
// stores each column on ceil(rows / 500) pages, and puts the median
// within 2% of the full data's.
TEST(ViewDefTest, SampledViewIsSmallAndItsMedianClose) {
  auto raw = Census(100'000);
  ASSERT_TRUE(raw.ok());
  ViewDefinition def;
  def.source = "census";
  def.sample_fraction = 0.05;
  auto sample = def.Materialize(*raw);
  ASSERT_TRUE(sample.ok());
  const uint64_t rows = sample->num_rows();
  EXPECT_EQ(rows, 4'986u);
  TestStorage ts(16);
  ConcreteView view("s", sample->schema(), &ts.pool);
  ASSERT_TRUE(view.LoadFrom(*sample).ok());
  EXPECT_EQ(view.ExportColumns()[6].pages.size(), (rows + 499) / 500);
  const double truth = Median(raw->NumericColumn("INCOME").value()).value();
  const double estimate =
      Median(sample->NumericColumn("INCOME").value()).value();
  EXPECT_LT(std::abs(estimate - truth) / truth, 0.02);
}

TEST(ViewDefTest, MaterializeWithAggregation) {
  auto raw = Census(3000);
  ASSERT_TRUE(raw.ok());
  ViewDefinition def;
  def.source = "census";
  def.group_by = {"SEX", "RACE", "AGE_GROUP"};
  def.aggregates = {AggSpec::Count("POPULATION"),
                    AggSpec::Avg("INCOME", "AVE_SALARY")};
  auto out = def.Materialize(*raw);
  ASSERT_TRUE(out.ok());
  EXPECT_LE(out->num_rows(), 32u);
  EXPECT_TRUE(out->schema().Contains("AVE_SALARY"));
}

class ConcreteViewTest : public ::testing::Test {
 protected:
  ConcreteViewTest() : ts_(2048) {
    auto data = Census(500);
    EXPECT_TRUE(data.ok());
    view_ = std::make_unique<ConcreteView>("v", data->schema(), &ts_.pool);
    EXPECT_TRUE(view_->LoadFrom(*data).ok());
  }

  TestStorage ts_;
  std::unique_ptr<ConcreteView> view_;
};

TEST_F(ConcreteViewTest, LoadDoesNotBumpVersion) {
  EXPECT_EQ(view_->version(), 0u);
  EXPECT_EQ(view_->num_rows(), 500u);
}

TEST_F(ConcreteViewTest, PredicateUpdateReportsChanges) {
  // Mark implausible ages missing (§3.1's cleaning step).
  UpdateSpec spec;
  spec.predicate = Gt(Col("AGE"), Lit(int64_t{120}));
  spec.column = "AGE";
  spec.value = nullptr;  // mark missing
  auto changes = ApplyUpdate(*view_, spec);
  ASSERT_TRUE(changes.ok());
  for (const CellChange& ch : *changes) {
    EXPECT_EQ(ch.column, "AGE");
    EXPECT_FALSE(ch.old_value.is_null());
    EXPECT_TRUE(ch.new_value.is_null());
    EXPECT_TRUE(view_->ReadCell(ch.row, "AGE").value().is_null());
  }
  if (!changes->empty()) {
    EXPECT_EQ(view_->version(), 1u);
  }
}

TEST_F(ConcreteViewTest, ValueExpressionUpdate) {
  UpdateSpec spec;
  spec.predicate = Lt(Col("INCOME"), Lit(1e5));
  spec.column = "INCOME";
  spec.value = Mul(Col("INCOME"), Lit(2.0));
  auto before = view_->ReadNumericColumn("INCOME").value();
  auto changes = ApplyUpdate(*view_, spec);
  ASSERT_TRUE(changes.ok());
  EXPECT_GT(changes->size(), 0u);
  auto after = view_->ReadNumericColumn("INCOME").value();
  EXPECT_EQ(before.size(), after.size());
}

TEST_F(ConcreteViewTest, NoopUpdateDoesNotBumpVersion) {
  UpdateSpec spec;
  spec.predicate = Gt(Col("AGE"), Lit(int64_t{100000}));
  spec.column = "AGE";
  spec.value = nullptr;
  auto changes = ApplyUpdate(*view_, spec);
  ASSERT_TRUE(changes.ok());
  EXPECT_TRUE(changes->empty());
  EXPECT_EQ(view_->version(), 0u);
}

TEST_F(ConcreteViewTest, UpdateWritingSameValueIsSkipped) {
  UpdateSpec spec;
  spec.predicate = nullptr;  // all rows
  spec.column = "AGE";
  spec.value = Col("AGE");  // identity
  auto changes = ApplyUpdate(*view_, spec);
  ASSERT_TRUE(changes.ok());
  EXPECT_TRUE(changes->empty());
}

// A change set holds each column once: staging a column it already
// holds (a local rule that reads its own column) fails and leaves the set
// as it was.
TEST_F(ConcreteViewTest, StagingAColumnTwiceFails) {
  ChangeSet staged;
  STATDB_ASSERT_OK(view_->Stage("AGE", /*predicate=*/nullptr,
                                /*value=*/nullptr, /*rows=*/nullptr, &staged));
  ASSERT_EQ(staged.size(), 1u);
  const uint64_t cells = CellCount(staged);
  ExprPtr one = Lit(int64_t{1});
  EXPECT_EQ(view_->Stage("AGE", nullptr, one.get(), nullptr, &staged).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(staged.size(), 1u);
  EXPECT_EQ(CellCount(staged), cells);
  EXPECT_EQ(view_->version(), 0u);
}

TEST_F(ConcreteViewTest, AddColumnAndSnapshot) {
  STATDB_ASSERT_OK(view_->AddColumn(Attribute::Numeric("Z")));
  auto snap = view_->Snapshot();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->num_columns(), 10u);
  EXPECT_TRUE(snap->At(0, 9).is_null());
}

TEST_F(ConcreteViewTest, UnknownColumnInUpdateFails) {
  UpdateSpec spec;
  spec.column = "NOPE";
  spec.value = Lit(1.0);
  EXPECT_FALSE(ApplyUpdate(*view_, spec).ok());
}

}  // namespace
}  // namespace statdb
