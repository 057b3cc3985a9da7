#include "relational/expr.h"

#include <cmath>
#include <limits>

#include "common/bytes.h"
#include "gtest/gtest.h"
#include "relational/bound_expr.h"
#include "tests/test_util.h"

namespace statdb {
namespace {

class ExprTest : public ::testing::Test {
 protected:
  ExprTest()
      : schema_({Attribute::Numeric("A", DataType::kInt64),
                 Attribute::Numeric("B", DataType::kDouble),
                 Attribute{"S", DataType::kString, AttributeKind::kValue,
                           "", false}}) {}

  Value Eval(const ExprPtr& e, Row row) {
    auto r = e->Eval(row, schema_);
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? *r : Value::Null();
  }

  Schema schema_;
};

TEST_F(ExprTest, ColumnAndLiteral) {
  Row row = {Value::Int(5), Value::Real(2.5), Value::Str("x")};
  EXPECT_EQ(Eval(Col("A"), row), Value::Int(5));
  EXPECT_EQ(Eval(Lit(7.5), row), Value::Real(7.5));
  EXPECT_EQ(Eval(Lit("s"), row), Value::Str("s"));
}

TEST_F(ExprTest, UnknownColumnFails) {
  Row row = {Value::Int(5), Value::Real(2.5), Value::Str("x")};
  EXPECT_FALSE(Col("NOPE")->Eval(row, schema_).ok());
}

TEST_F(ExprTest, IntegerArithmeticStaysIntegral) {
  Row row = {Value::Int(7), Value::Real(0), Value::Null()};
  EXPECT_EQ(Eval(Add(Col("A"), Lit(int64_t{3})), row), Value::Int(10));
  EXPECT_EQ(Eval(Mul(Col("A"), Lit(int64_t{2})), row), Value::Int(14));
  EXPECT_EQ(Eval(Sub(Col("A"), Lit(int64_t{9})), row), Value::Int(-2));
}

TEST_F(ExprTest, DivisionIsReal) {
  Row row = {Value::Int(7), Value::Real(2.0), Value::Null()};
  EXPECT_EQ(Eval(Div(Col("A"), Col("B")), row), Value::Real(3.5));
}

TEST_F(ExprTest, DivisionByZeroYieldsNull) {
  Row row = {Value::Int(7), Value::Real(0.0), Value::Null()};
  EXPECT_TRUE(Eval(Div(Col("A"), Col("B")), row).is_null());
}

TEST_F(ExprTest, NullPropagatesThroughArithmetic) {
  Row row = {Value::Null(), Value::Real(2.0), Value::Null()};
  EXPECT_TRUE(Eval(Add(Col("A"), Col("B")), row).is_null());
}

TEST_F(ExprTest, Comparisons) {
  Row row = {Value::Int(5), Value::Real(5.0), Value::Str("x")};
  EXPECT_EQ(Eval(Eq(Col("A"), Col("B")), row), Value::Int(1));
  EXPECT_EQ(Eval(Ne(Col("A"), Col("B")), row), Value::Int(0));
  EXPECT_EQ(Eval(Lt(Col("A"), Lit(6.0)), row), Value::Int(1));
  EXPECT_EQ(Eval(Ge(Col("A"), Lit(6.0)), row), Value::Int(0));
  EXPECT_EQ(Eval(Le(Col("A"), Lit(int64_t{5})), row), Value::Int(1));
  EXPECT_EQ(Eval(Gt(Col("A"), Lit(int64_t{4})), row), Value::Int(1));
}

TEST_F(ExprTest, ComparisonWithNullIsNull) {
  Row row = {Value::Null(), Value::Real(1.0), Value::Null()};
  EXPECT_TRUE(Eval(Lt(Col("A"), Col("B")), row).is_null());
  EXPECT_FALSE(IsTrue(Eval(Lt(Col("A"), Col("B")), row)));
}

TEST_F(ExprTest, ThreeValuedLogic) {
  Row with_null = {Value::Null(), Value::Real(1.0), Value::Null()};
  ExprPtr null_cmp = Eq(Col("A"), Lit(int64_t{1}));  // null
  ExprPtr true_cmp = Gt(Col("B"), Lit(0.0));         // true
  ExprPtr false_cmp = Lt(Col("B"), Lit(0.0));        // false
  // AND: false dominates null.
  EXPECT_EQ(Eval(And(null_cmp, false_cmp), with_null), Value::Int(0));
  EXPECT_TRUE(Eval(And(null_cmp, true_cmp), with_null).is_null());
  // OR: true dominates null.
  EXPECT_EQ(Eval(Or(null_cmp, true_cmp), with_null), Value::Int(1));
  EXPECT_TRUE(Eval(Or(null_cmp, false_cmp), with_null).is_null());
  // NOT null is null.
  EXPECT_TRUE(Eval(Not(null_cmp), with_null).is_null());
  EXPECT_EQ(Eval(Not(false_cmp), with_null), Value::Int(1));
}

TEST_F(ExprTest, UnaryMath) {
  Row row = {Value::Int(-4), Value::Real(std::exp(1.0)), Value::Null()};
  EXPECT_EQ(Eval(Neg(Col("A")), row), Value::Int(4));
  EXPECT_EQ(Eval(Abs(Col("A")), row), Value::Int(4));
  EXPECT_NEAR(Eval(Log(Col("B")), row).AsReal(), 1.0, 1e-12);
  // log of non-positive is null (missing), not an error.
  EXPECT_TRUE(Eval(Log(Col("A")), row).is_null());
}

TEST_F(ExprTest, NullTests) {
  Row row = {Value::Null(), Value::Real(1.0), Value::Null()};
  EXPECT_EQ(Eval(IsNull(Col("A")), row), Value::Int(1));
  EXPECT_EQ(Eval(IsNull(Col("B")), row), Value::Int(0));
  EXPECT_EQ(Eval(IsNotNull(Col("B")), row), Value::Int(1));
}

TEST_F(ExprTest, ReferencedColumnsDeduplicated) {
  ExprPtr e = And(Gt(Col("A"), Lit(0.0)),
                  Or(Lt(Col("B"), Col("A")), IsNull(Col("B"))));
  auto cols = e->ReferencedColumns();
  ASSERT_EQ(cols.size(), 2u);
  EXPECT_EQ(cols[0], "A");
  EXPECT_EQ(cols[1], "B");
}

TEST_F(ExprTest, ToStringReadable) {
  ExprPtr e = Gt(Col("INCOME"), Lit(1000000.0));
  EXPECT_EQ(e->ToString(), "(INCOME > 1e+06)");
}

TEST_F(ExprTest, IsTrueSemantics) {
  EXPECT_TRUE(IsTrue(Value::Int(1)));
  EXPECT_TRUE(IsTrue(Value::Real(0.5)));
  EXPECT_FALSE(IsTrue(Value::Int(0)));
  EXPECT_FALSE(IsTrue(Value::Real(0.0)));
  EXPECT_FALSE(IsTrue(Value::Null()));
  EXPECT_FALSE(IsTrue(Value::Str("true")));
}

TEST_F(ExprTest, Int64OverflowIsOutOfRange) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  Row row = {Value::Int(kMin), Value::Null(), Value::Null()};
  for (const ExprPtr& e :
       {Mul(Lit(kMax), Lit(int64_t{2})), Add(Lit(kMax), Lit(int64_t{1})),
        Sub(Col("A"), Lit(int64_t{1})), Neg(Col("A")), Abs(Col("A"))}) {
    EXPECT_EQ(e->Eval(row, schema_).status().code(), StatusCode::kOutOfRange)
        << e->ToString();
  }
  // In range: exact, and real arithmetic never overflows into an error.
  EXPECT_EQ(Eval(Add(Lit(kMax - 1), Lit(int64_t{1})), row), Value::Int(kMax));
  EXPECT_EQ(Eval(Neg(Lit(kMax)), row), Value::Int(-kMax));
  EXPECT_TRUE(Eval(Mul(Lit(double(kMax)), Lit(int64_t{2})), row).is_numeric());
}

TEST_F(ExprTest, DeserializeRejectsWrongArity) {
  ByteWriter w;
  Expr::MakeUnary(ExprOp::kAdd, Col("A"))->Serialize(&w);
  ByteReader r(w.bytes());
  EXPECT_EQ(Expr::Deserialize(&r).status().code(), StatusCode::kDataLoss);
}


/// Encoding of `levels` nested negations of a literal; no Expr is built,
/// so nothing recurses to make it.
std::vector<uint8_t> NegationChain(size_t levels) {
  ByteWriter w;
  for (size_t i = 1; i < levels; ++i) w.PutU8(uint8_t(ExprOp::kNeg));
  Lit(1.0)->Serialize(&w);
  for (size_t i = 1; i < levels; ++i) w.PutU8(0);  // no right operand
  return w.Take();
}

// A chain of 50,000 levels is refused as DATA_LOSS before the decoder's
// recursion can outgrow the stack; Expr::kMaxDepth levels decode. Binding
// refuses one level more, so nothing is staged or stored that would not
// decode.
TEST_F(ExprTest, DecodeAndBindRefuseTreesDeeperThanTheLimit) {
  for (size_t levels : {Expr::kMaxDepth, Expr::kMaxDepth + 1, size_t{50'000}}) {
    const std::vector<uint8_t> bytes = NegationChain(levels);
    ByteReader r(bytes);
    EXPECT_EQ(Expr::Deserialize(&r).status().code(),
              levels <= Expr::kMaxDepth ? StatusCode::kOk
                                        : StatusCode::kDataLoss);
  }
  ExprPtr e = Col("A");
  for (size_t level = 2; level <= Expr::kMaxDepth; ++level) e = Neg(e);
  STATDB_EXPECT_OK(BoundExpr::Bind(*e, schema_));
  EXPECT_EQ(BoundExpr::Bind(*Neg(e), schema_).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace statdb
