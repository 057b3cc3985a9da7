// Persistence round-trips: values, expressions, view definitions and
// the Management Database's control state (§3.2's "repository").

#include <bit>

#include "common/bytes.h"
#include "common/rng.h"
#include "core/management_serde.h"
#include "core/view_def.h"
#include "gtest/gtest.h"
#include "relational/expr.h"
#include "tests/test_util.h"

namespace statdb {
namespace {

// --- values ------------------------------------------------------------------

TEST(ValueSerdeTest, AllTypesRoundTrip) {
  for (const Value& v :
       {Value::Null(), Value::Int(-99), Value::Real(3.25),
        Value::Str("über 60"), Value::Str("")}) {
    ByteWriter w;
    EncodeValue(v, &w);
    ByteReader r(w.bytes());
    auto back = DecodeValue(&r);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
    if (!v.is_null()) {
      EXPECT_EQ(back->type(), v.type());
    }
  }
}

TEST(ValueSerdeTest, BadTagFails) {
  ByteWriter w;
  w.PutU8(99);
  ByteReader r(w.bytes());
  EXPECT_FALSE(DecodeValue(&r).ok());
}

// --- expressions --------------------------------------------------------------

std::string RoundTripToString(const ExprPtr& e) {
  ByteWriter w;
  e->Serialize(&w);
  ByteReader r(w.bytes());
  auto back = Expr::Deserialize(&r);
  EXPECT_TRUE(back.ok());
  EXPECT_TRUE(r.exhausted());
  return back.ok() ? (*back)->ToString() : "<error>";
}

TEST(ExprSerdeTest, LeavesRoundTrip) {
  EXPECT_EQ(RoundTripToString(Col("INCOME")), "INCOME");
  EXPECT_EQ(RoundTripToString(Lit(5.0)), "5");
  EXPECT_EQ(RoundTripToString(Lit("M")), "M");
  EXPECT_EQ(RoundTripToString(Lit(Value::Null())), "NULL");
}

TEST(ExprSerdeTest, CompositeRoundTrip) {
  ExprPtr e = And(Gt(Col("INCOME"), Lit(1e6)),
                  Or(IsNull(Col("AGE")), Le(Log(Col("INCOME")), Lit(14.0))));
  EXPECT_EQ(RoundTripToString(e), e->ToString());
}

TEST(ExprSerdeTest, EvaluatesIdenticallyAfterRoundTrip) {
  Schema schema({Attribute::Numeric("A", DataType::kInt64),
                 Attribute::Numeric("B", DataType::kDouble)});
  ExprPtr e = Div(Add(Col("A"), Lit(int64_t{3})), Abs(Col("B")));
  ByteWriter w;
  e->Serialize(&w);
  ByteReader r(w.bytes());
  ExprPtr back = Expr::Deserialize(&r).value();
  Row row = {Value::Int(7), Value::Real(-2.0)};
  EXPECT_EQ(e->Eval(row, schema).value(), back->Eval(row, schema).value());
}

// Random expression trees must round-trip structurally.
class ExprFuzzTest : public ::testing::TestWithParam<int> {};

ExprPtr RandomExpr(Rng* rng, int depth) {
  if (depth <= 0 || rng->Bernoulli(0.3)) {
    if (rng->Bernoulli(0.5)) {
      return Col("C" + std::to_string(rng->UniformInt(0, 5)));
    }
    switch (rng->UniformInt(0, 2)) {
      case 0: return Lit(double(rng->UniformInt(-100, 100)));
      case 1: return Lit(rng->UniformInt(-100, 100));
      default: return Lit(Value::Null());
    }
  }
  switch (rng->UniformInt(0, 6)) {
    case 0: return Add(RandomExpr(rng, depth - 1), RandomExpr(rng, depth - 1));
    case 1: return Mul(RandomExpr(rng, depth - 1), RandomExpr(rng, depth - 1));
    case 2: return Lt(RandomExpr(rng, depth - 1), RandomExpr(rng, depth - 1));
    case 3: return And(RandomExpr(rng, depth - 1), RandomExpr(rng, depth - 1));
    case 4: return Not(RandomExpr(rng, depth - 1));
    case 5: return Log(RandomExpr(rng, depth - 1));
    default: return IsNull(RandomExpr(rng, depth - 1));
  }
}

TEST_P(ExprFuzzTest, RandomTreesRoundTrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    ExprPtr e = RandomExpr(&rng, 5);
    EXPECT_EQ(RoundTripToString(e), e->ToString());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprFuzzTest, ::testing::Range(1, 7));

TEST(ExprSerdeTest, TruncatedBytesFail) {
  ExprPtr e = Add(Col("A"), Lit(1.0));
  ByteWriter w;
  e->Serialize(&w);
  auto bytes = w.bytes();
  std::vector<uint8_t> cut(bytes.begin(), bytes.end() - 3);
  ByteReader r(cut.data(), cut.size());
  EXPECT_FALSE(Expr::Deserialize(&r).ok());
}

// --- view definitions -----------------------------------------------------------

TEST(ViewDefSerdeTest, FullDefinitionRoundTrip) {
  ViewDefinition def;
  def.source = "census";
  def.predicate = Gt(Col("AGE"), Lit(int64_t{18}));
  def.projection = {"SEX", "INCOME"};
  def.sample_fraction = 0.25;
  def.sample_seed = 77;
  def.group_by = {"SEX"};
  def.aggregates = {AggSpec::Count("N"),
                    AggSpec::WeightedAvg("AVE_SALARY", "POPULATION",
                                         "W_AVG")};
  ByteWriter w;
  def.Serialize(&w);
  ByteReader r(w.bytes());
  auto back = ViewDefinition::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  // Canonical text identity is the contract duplicate detection needs.
  EXPECT_EQ(back->Canonical(), def.Canonical());
  EXPECT_TRUE(r.exhausted());
}

TEST(ViewDefSerdeTest, MinimalDefinitionRoundTrip) {
  ViewDefinition def;
  def.source = "census";
  ByteWriter w;
  def.Serialize(&w);
  ByteReader r(w.bytes());
  auto back = ViewDefinition::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->Canonical(), def.Canonical());
  EXPECT_EQ(back->predicate, nullptr);
}

// --- management database state -----------------------------------------------------

TEST(ManagementSerdeTest, FullStateRoundTrip) {
  ManagementDatabase mdb;
  STATDB_ASSERT_OK(mdb.RegisterView("v1", "FROM census",
                                    MaintenancePolicy::kIncremental));
  STATDB_ASSERT_OK(mdb.RegisterView("v2", "FROM census WHERE x",
                                    MaintenancePolicy::kInvalidate));
  STATDB_ASSERT_OK(mdb.AddDerivedColumn(
      "v1", DerivedColumnDef::Local("LOG_INCOME", Log(Col("INCOME")))));
  STATDB_ASSERT_OK(mdb.AddDerivedColumn(
      "v1", DerivedColumnDef::Residuals("RESID", "AGE", "INCOME")));
  ViewRecord* rec = mdb.GetView("v1").value();
  rec->version = 3;
  rec->derived_columns[1].out_of_date = true;
  // Column 1 stands for AGE and column 2 for INCOME; cells are raw.
  STATDB_ASSERT_OK(rec->history.Append(
      {1, "clean ages", {{1, {{7, 1000, std::nullopt}}}}}));
  STATDB_ASSERT_OK(rec->history.Append(
      {3,
       "double incomes",
       {{2,
         {{0, std::bit_cast<int64_t>(10.0), std::bit_cast<int64_t>(20.0)},
          {1, std::bit_cast<int64_t>(12.0),
           std::bit_cast<int64_t>(24.0)}}}}}));

  auto bytes = SerializeManagementState(mdb);
  ASSERT_TRUE(bytes.ok());
  ManagementDatabase restored;
  STATDB_ASSERT_OK(RestoreManagementState(*bytes, &restored));

  ASSERT_EQ(restored.ViewNames().size(), 2u);
  const ViewRecord* r1 = restored.GetView("v1").value();
  EXPECT_EQ(r1->canonical_definition, "FROM census");
  EXPECT_EQ(r1->version, 3u);
  EXPECT_EQ(r1->policy, MaintenancePolicy::kIncremental);
  ASSERT_EQ(r1->derived_columns.size(), 2u);
  EXPECT_EQ(r1->derived_columns[0].row_expr->ToString(), "log(INCOME)");
  EXPECT_TRUE(r1->derived_columns[1].out_of_date);
  EXPECT_EQ(r1->derived_columns[1].generator,
            ColumnGenerator::kRegressionResiduals);
  ASSERT_EQ(r1->history.entries().size(), 2u);
  EXPECT_EQ(r1->history.entries()[0].description, "clean ages");
  EXPECT_FALSE(
      r1->history.entries()[0].changes[0].cells[0].new_cell().has_value());
  EXPECT_EQ(r1->history.entries()[1].changes[0].cells[1].new_cell(),
            std::optional(std::bit_cast<int64_t>(24.0)));
  // Duplicate detection still works on the restored state.
  EXPECT_EQ(restored.FindViewByDefinition("FROM census WHERE x").value(),
            "v2");
}

TEST(ManagementSerdeTest, RestoreIntoNonEmptyFails) {
  ManagementDatabase a, b;
  STATDB_ASSERT_OK(
      b.RegisterView("v", "def", MaintenancePolicy::kIncremental));
  auto bytes = SerializeManagementState(a);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(RestoreManagementState(*bytes, &b).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ManagementSerdeTest, CorruptBytesFail) {
  ManagementDatabase mdb;
  auto bytes = SerializeManagementState(mdb);
  ASSERT_TRUE(bytes.ok());
  ManagementDatabase restored;
  std::vector<uint8_t> corrupt = *bytes;
  corrupt[0] ^= 0xFF;  // break the magic
  EXPECT_FALSE(RestoreManagementState(corrupt, &restored).ok());
  std::vector<uint8_t> truncated(bytes->begin(), bytes->end() - 1);
  ManagementDatabase restored2;
  EXPECT_FALSE(RestoreManagementState(truncated, &restored2).ok());
}

TEST(ManagementSerdeTest, HugeChangeCountIsDataLoss) {
  // One view with one history entry claiming 0xFFFFFFFF column changes.
  ByteWriter w;
  w.PutU32(0x5344424d);  // "SDBM"
  w.PutU32(2);           // format version
  w.PutU32(1);  // views
  w.PutString("v");
  w.PutString("");
  w.PutU64(1);  // view version
  w.PutU8(0);   // policy
  w.PutU32(0);  // derived columns
  w.PutU32(1);  // history entries
  w.PutU64(1);
  w.PutString("edit");
  w.PutU32(0xFFFFFFFFu);
  for (int i = 0; i < 64; ++i) w.PutU8(0);
  ManagementDatabase restored;
  Status s = RestoreManagementState(w.bytes(), &restored);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_NE(s.message().find("element count 4294967295"), std::string::npos)
      << s.ToString();
}

}  // namespace
}  // namespace statdb
