#include "relational/schema.h"
#include "relational/table.h"

#include <cstring>

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace statdb {
namespace {

Schema TwoColSchema() {
  return Schema({Attribute::Category("SEX", DataType::kInt64, "SEX"),
                 Attribute::Numeric("INCOME", DataType::kDouble)});
}

TEST(SchemaTest, IndexOfAndContains) {
  Schema s = TwoColSchema();
  EXPECT_EQ(s.IndexOf("SEX").value(), 0u);
  EXPECT_EQ(s.IndexOf("INCOME").value(), 1u);
  EXPECT_FALSE(s.IndexOf("NOPE").ok());
  EXPECT_TRUE(s.Contains("SEX"));
  EXPECT_FALSE(s.Contains("nope"));
}

TEST(SchemaTest, CategoryAttributes) {
  Schema s = TwoColSchema();
  auto cats = s.CategoryAttributes();
  ASSERT_EQ(cats.size(), 1u);
  EXPECT_EQ(cats[0], "SEX");
  // Category attributes are never summarizable by default.
  EXPECT_FALSE(s.attr(0).summarizable);
  EXPECT_TRUE(s.attr(1).summarizable);
}

TEST(SchemaTest, Equality) {
  EXPECT_TRUE(TwoColSchema() == TwoColSchema());
  Schema other({Attribute::Numeric("X")});
  EXPECT_FALSE(TwoColSchema() == other);
}

TEST(TableTest, AppendAndAccess) {
  Table t(TwoColSchema());
  STATDB_ASSERT_OK(t.AppendRow({Value::Int(0), Value::Real(100.5)}));
  STATDB_ASSERT_OK(t.AppendRow({Value::Int(1), Value::Null()}));
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.At(0, 0), Value::Int(0));
  EXPECT_TRUE(t.At(1, 1).is_null());
}

TEST(TableTest, ArityMismatchRejected) {
  Table t(TwoColSchema());
  EXPECT_EQ(t.AppendRow({Value::Int(0)}).code(),
            StatusCode::kInvalidArgument);
}

TEST(TableTest, TypeMismatchRejected) {
  Table t(TwoColSchema());
  EXPECT_EQ(t.AppendRow({Value::Str("M"), Value::Real(1.0)}).code(),
            StatusCode::kInvalidArgument);
}

TEST(TableTest, IntPromotesIntoDoubleColumn) {
  Table t(TwoColSchema());
  STATDB_ASSERT_OK(t.AppendRow({Value::Int(0), Value::Int(100)}));
  EXPECT_EQ(t.At(0, 1).type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(t.At(0, 1).AsReal(), 100.0);
}

TEST(TableTest, GetRowCopies) {
  Table t(TwoColSchema());
  STATDB_ASSERT_OK(t.AppendRow({Value::Int(1), Value::Real(2.0)}));
  Row r = t.GetRow(0);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], Value::Int(1));
}

TEST(TableTest, SetCell) {
  Table t(TwoColSchema());
  STATDB_ASSERT_OK(t.AppendRow({Value::Int(1), Value::Real(2.0)}));
  STATDB_ASSERT_OK(t.SetCell(0, 1, Value::Null()));
  EXPECT_TRUE(t.At(0, 1).is_null());
  EXPECT_EQ(t.SetCell(5, 0, Value::Int(1)).code(),
            StatusCode::kOutOfRange);
}

TEST(TableTest, AddColumnFills) {
  Table t(TwoColSchema());
  STATDB_ASSERT_OK(t.AppendRow({Value::Int(1), Value::Real(2.0)}));
  STATDB_ASSERT_OK(t.AppendRow({Value::Int(0), Value::Real(3.0)}));
  STATDB_ASSERT_OK(t.AddColumn(Attribute::Numeric("Z"), Value::Real(0.0)));
  EXPECT_EQ(t.num_columns(), 3u);
  EXPECT_DOUBLE_EQ(t.At(1, 2).AsReal(), 0.0);
  EXPECT_EQ(t.AddColumn(Attribute::Numeric("Z")).code(),
            StatusCode::kAlreadyExists);
}

TEST(TableTest, NumericColumnSkipsNulls) {
  Table t(TwoColSchema());
  STATDB_ASSERT_OK(t.AppendRow({Value::Int(0), Value::Real(1.0)}));
  STATDB_ASSERT_OK(t.AppendRow({Value::Int(0), Value::Null()}));
  STATDB_ASSERT_OK(t.AppendRow({Value::Int(0), Value::Real(3.0)}));
  auto col = t.NumericColumn("INCOME");
  ASSERT_TRUE(col.ok());
  ASSERT_EQ(col->size(), 2u);
  EXPECT_DOUBLE_EQ((*col)[1], 3.0);
}

TEST(TableTest, RowSerializationRoundTrip) {
  Row row = {Value::Null(), Value::Int(-5), Value::Real(2.75),
             Value::Str("hello")};
  auto bytes = SerializeRow(row);
  auto back = DeserializeRow(bytes.data(), bytes.size());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 4u);
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ((*back)[i], row[i]) << "index " << i;
  }
  EXPECT_EQ((*back)[3].type(), DataType::kString);
}

TEST(TableTest, RowDeserializeTruncatedFails) {
  auto bytes = SerializeRow({Value::Int(1), Value::Str("abc")});
  EXPECT_FALSE(DeserializeRow(bytes.data(), bytes.size() - 2).ok());
  // A cell count the bytes cannot hold fails before anything is sized.
  std::memset(bytes.data(), 0xFF, 4);
  EXPECT_EQ(DeserializeRow(bytes.data(), bytes.size()).status().code(),
            StatusCode::kDataLoss);
}

TEST(TableTest, ToStringShowsHeaderAndRows) {
  Table t(TwoColSchema());
  STATDB_ASSERT_OK(t.AppendRow({Value::Int(1), Value::Real(2.0)}));
  std::string s = t.ToString();
  EXPECT_NE(s.find("SEX"), std::string::npos);
  EXPECT_NE(s.find("INCOME"), std::string::npos);
}

}  // namespace
}  // namespace statdb
