#include "relational/value.h"

#include <cmath>
#include <limits>

#include "gtest/gtest.h"

namespace statdb {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value::Null().type(), DataType::kNull);
  EXPECT_EQ(Value::Int(5).type(), DataType::kInt64);
  EXPECT_EQ(Value::Real(2.5).type(), DataType::kDouble);
  EXPECT_EQ(Value::Str("x").type(), DataType::kString);
  EXPECT_EQ(Value::Int(5).AsInt(), 5);
  EXPECT_DOUBLE_EQ(Value::Real(2.5).AsReal(), 2.5);
  EXPECT_EQ(Value::Str("x").AsStr(), "x");
}

TEST(ValueTest, NullChecks) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_FALSE(Value::Int(0).is_null());
  EXPECT_TRUE(Value::Int(0).is_numeric());
  EXPECT_TRUE(Value::Real(0).is_numeric());
  EXPECT_FALSE(Value::Str("0").is_numeric());
}

TEST(ValueTest, NumericCoercion) {
  EXPECT_DOUBLE_EQ(Value::Int(3).ToDouble().value(), 3.0);
  EXPECT_DOUBLE_EQ(Value::Real(3.5).ToDouble().value(), 3.5);
  EXPECT_FALSE(Value::Str("3").ToDouble().ok());
  EXPECT_FALSE(Value::Null().ToDouble().ok());
  EXPECT_EQ(Value::Real(3.9).ToInt().value(), 3);
}

TEST(ValueTest, CrossTypeNumericComparison) {
  EXPECT_EQ(Value::Int(3), Value::Real(3.0));
  EXPECT_TRUE(Value::Int(3) < Value::Real(3.5));
  EXPECT_TRUE(Value::Real(2.9) < Value::Int(3));
}

TEST(ValueTest, NullOrdersFirst) {
  EXPECT_TRUE(Value::Null() < Value::Int(-1000000));
  EXPECT_TRUE(Value::Null() < Value::Str(""));
  EXPECT_EQ(Value::Null(), Value::Null());
}

TEST(ValueTest, NumbersOrderBeforeStrings) {
  EXPECT_TRUE(Value::Int(999) < Value::Str("0"));
}

TEST(ValueTest, StringComparison) {
  EXPECT_TRUE(Value::Str("apple") < Value::Str("banana"));
  EXPECT_EQ(Value::Str("a"), Value::Str("a"));
}

TEST(ValueTest, EqualValuesHashEqual) {
  EXPECT_EQ(Value::Int(42).Hash(), Value::Real(42.0).Hash());
  EXPECT_EQ(Value::Str("x").Hash(), Value::Str("x").Hash());
  EXPECT_EQ(Value::Null().Hash(), Value::Null().Hash());
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int(-7).ToString(), "-7");
  EXPECT_EQ(Value::Str("hi").ToString(), "hi");
}

TEST(ValueTest, IntIntComparesExactly) {
  int64_t big = (int64_t{1} << 60) + 1;
  EXPECT_TRUE(Value::Int(big - 1) < Value::Int(big));
}

TEST(ValueTest, ToIntRejectsDoublesOutsideInt64) {
  EXPECT_EQ(Value::Real(-3.9).ToInt().value(), -3);
  EXPECT_EQ(Value::Real(-9223372036854775808.0).ToInt().value(),
            std::numeric_limits<int64_t>::min());
  const double inf = std::numeric_limits<double>::infinity();
  for (double d : {std::nan(""), inf, -inf, 9223372036854775808.0, -9.3e18,
                   1e300}) {
    EXPECT_EQ(Value::Real(d).ToInt().status().code(), StatusCode::kOutOfRange)
        << d;
  }
}

}  // namespace
}  // namespace statdb
