// The batch evaluator (BoundExpr) against the row-at-a-time reference
// (Expr::Eval): seeded random trees over every ExprOp, on int64, double
// and string columns with nulls, values near the int64 limits, zero
// divisors, non-positive log/sqrt arguments and errors reachable only
// through AND/OR. Each batch must give the reference's cells for every
// selected row before the first failing one, and fail at that row with
// the reference's status.

#include "relational/bound_expr.h"

#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/view.h"
#include "gtest/gtest.h"
#include "relational/ops.h"
#include "relational/stored_table.h"
#include "tests/cell_changes.h"
#include "tests/test_util.h"

namespace statdb {
namespace {

constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
constexpr int64_t kMin = std::numeric_limits<int64_t>::min();

/// Same type and value; doubles bit for bit, any NaN matching any NaN.
bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.type() == DataType::kDouble) {
    const double x = a.AsReal(), y = b.AsReal();
    return (std::isnan(x) && std::isnan(y)) ||
           std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
  }
  return a == b;
}

Schema TestSchema() {
  return Schema({Attribute::Numeric("I", DataType::kInt64),
                 Attribute::Numeric("J", DataType::kInt64),
                 Attribute::Numeric("D", DataType::kDouble),
                 Attribute::Numeric("E", DataType::kDouble),
                 Attribute{"S", DataType::kString, AttributeKind::kValue, "",
                           false}});
}

Value RandomInt(Rng* rng) {
  static const int64_t kEdges[] = {kMax,     kMin,     kMax - 1,
                                   kMin + 1, 1LL << 62, -(1LL << 62),
                                   3037000500LL, 0};
  if (rng->Bernoulli(0.25)) {
    return Value::Int(kEdges[rng->UniformInt(0, 7)]);
  }
  return Value::Int(rng->UniformInt(-4, 4));
}

Value RandomReal(Rng* rng) {
  static const double kEdges[] = {0.0,  -0.0, 1e300, -1e300,
                                  0.5,  -2.5, std::nan(""),
                                  9.3e18};
  if (rng->Bernoulli(0.3)) return Value::Real(kEdges[rng->UniformInt(0, 7)]);
  return Value::Real(double(rng->UniformInt(-6, 6)) / 2.0);
}

Value RandomStr(Rng* rng) {
  static const char* kStrs[] = {"", "a", "b", "x", "10"};
  return Value::Str(kStrs[rng->UniformInt(0, 4)]);
}

Table RandomTable(size_t rows, Rng* rng) {
  Table t(TestSchema());
  for (size_t r = 0; r < rows; ++r) {
    auto cell = [&](Value v) { return rng->Bernoulli(0.12) ? Value() : v; };
    Row row = {cell(RandomInt(rng)), cell(RandomInt(rng)),
               cell(RandomReal(rng)), cell(RandomReal(rng)),
               cell(RandomStr(rng))};
    EXPECT_TRUE(t.AppendRow(std::move(row)).ok());
  }
  return t;
}

ExprPtr RandomLeaf(Rng* rng) {
  static const char* kCols[] = {"I", "J", "D", "E", "S"};
  const double p = rng->UniformDouble(0, 1);
  if (p < 0.55) {
    // Strings are rarer: any present one fails arithmetic.
    return Col(kCols[rng->Bernoulli(0.15) ? 4 : rng->UniformInt(0, 3)]);
  }
  if (p < 0.72) return Lit(RandomInt(rng));
  if (p < 0.89) return Lit(RandomReal(rng));
  if (p < 0.95) return Lit(RandomStr(rng));
  return Lit(Value::Null());
}

ExprPtr RandomTree(Rng* rng, int depth) {
  if (depth == 0 || rng->Bernoulli(0.25)) return RandomLeaf(rng);
  const auto op = static_cast<ExprOp>(rng->UniformInt(
      int64_t(ExprOp::kAdd), int64_t(ExprOp::kIsNotNull)));
  ExprPtr lhs = RandomTree(rng, depth - 1);
  if (op <= ExprOp::kOr) {
    return Expr::MakeBinary(op, lhs, RandomTree(rng, depth - 1));
  }
  return Expr::MakeUnary(op, lhs);
}

/// Batch [lo, lo + n) of `t`, unpacked into `bufs` for `bound`'s columns.
RowBatch FillBatch(const Table& t, const BoundExpr& bound, size_t lo,
                   size_t n, std::vector<ColumnBuffer>* bufs) {
  RowBatch batch;
  batch.size = n;
  batch.columns.resize(t.num_columns());
  const std::vector<size_t>& cols = bound.columns();
  bufs->resize(cols.size());
  for (size_t k = 0; k < cols.size(); ++k) {
    const DataType type = t.schema().attr(cols[k]).type;
    EXPECT_TRUE((*bufs)[k].Fill(type, t.Column(cols[k]).data() + lo, n).ok());
    batch.columns[cols[k]] = (*bufs)[k].View(type);
  }
  return batch;
}

/// Evaluates `e` over `t` a batch at a time, on every row or (with
/// `subsets`, for half the batches) on a random subset, and checks every
/// batch against Expr::Eval. Returns the number of batches that failed.
int ExpectParity(const ExprPtr& e, const Table& t, Rng* rng,
                 bool subsets = true) {
  Result<BoundExpr> bound = BoundExpr::Bind(*e, t.schema());
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  if (!bound.ok()) return 0;
  int failed = 0;
  std::vector<ColumnBuffer> bufs;
  for (size_t lo = 0; lo < t.num_rows(); lo += kBatchRows) {
    const size_t size = std::min(kBatchRows, t.num_rows() - lo);
    RowBatch batch = FillBatch(t, *bound, lo, size, &bufs);
    const bool subset = subsets && rng->Bernoulli(0.5);
    std::vector<uint16_t> sel;
    for (size_t i = 0; i < size; ++i) {
      if (!subset || rng->Bernoulli(0.5)) sel.push_back(uint16_t(i));
    }
    Status error;
    const size_t err = bound->Eval(batch, sel.data(), sel.size(), &error);
    std::vector<uint16_t> kept(sel.size());
    size_t kept_n = 0;
    Status filter_error;
    EXPECT_EQ(bound->Filter(batch, sel.data(), sel.size(), kept.data(),
                            &kept_n, &filter_error),
              err);

    size_t ref_err = BoundExpr::kNoError;
    Status ref_status;
    std::vector<uint16_t> ref_kept;
    for (uint16_t r : sel) {
      Result<Value> v = e->Eval(t.GetRow(lo + r), t.schema());
      if (!v.ok()) {
        ref_err = r;
        ref_status = v.status();
        break;
      }
      if (IsTrue(*v)) ref_kept.push_back(r);
      if (r < err) {
        EXPECT_TRUE(SameValue(CellValue(bound->result(), r), *v))
            << e->ToString() << " row " << lo + r << ": batch "
            << CellValue(bound->result(), r) << " vs row " << *v;
      }
    }
    EXPECT_EQ(err, ref_err) << e->ToString() << " at batch " << lo;
    if (ref_err != BoundExpr::kNoError) {
      ++failed;
      EXPECT_EQ(error.ToString(), ref_status.ToString()) << e->ToString();
      EXPECT_EQ(filter_error.ToString(), ref_status.ToString());
    }
    EXPECT_EQ(std::vector<uint16_t>(kept.begin(), kept.begin() + kept_n),
              ref_kept)
        << e->ToString();
  }
  return failed;
}

TEST(BoundExprParityTest, RandomTreesMatchRowEvaluation) {
  Rng rng(20260518);
  // Three batches: two full pages and a final partial one.
  const Table t = RandomTable(2 * kBatchRows + 203, &rng);
  int failing = 0;
  constexpr int kTrees = 600;
  for (int i = 0; i < kTrees; ++i) {
    ExprPtr e = RandomTree(&rng, 4);
    failing += ExpectParity(e, t, &rng) > 0 ? 1 : 0;
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first mismatch at tree " << i << ": " << e->ToString();
      return;
    }
  }
  // Both outcomes must be well represented for the sweep to mean much.
  EXPECT_GT(failing, kTrees / 10);
  EXPECT_LT(failing, kTrees * 9 / 10);
}

TEST(BoundExprParityTest, EveryOpMatchesOnEdgeValues) {
  Rng rng(7);
  const Table t = RandomTable(kBatchRows, &rng);
  const std::vector<ExprPtr> leaves = {Col("I"), Col("D"), Col("S"),
                                       Lit(kMax), Lit(0.0),
                                       Lit(Value::Null())};
  for (int op = int(ExprOp::kAdd); op <= int(ExprOp::kIsNotNull); ++op) {
    for (const ExprPtr& a : leaves) {
      if (ExprOp(op) > ExprOp::kOr) {
        ExpectParity(Expr::MakeUnary(ExprOp(op), a), t, &rng);
        continue;
      }
      for (const ExprPtr& b : leaves) {
        ExpectParity(Expr::MakeBinary(ExprOp(op), a, b), t, &rng);
      }
    }
  }
}

TEST(BoundExprParityTest, ErrorsReachableOnlyThroughAndOr) {
  Table t(TestSchema());
  for (int64_t i = 0; i < 600; ++i) {
    STATDB_ASSERT_OK(t.AppendRow({Value::Int(i == 300 ? -1 : i + 1),
                                  Value::Int(i), Value::Real(1.0),
                                  Value::Null(), Value::Str("s")}));
  }
  Rng rng(3);
  auto failing_batches = [&](const ExprPtr& e) {
    return ExpectParity(e, t, &rng, /*subsets=*/false);
  };
  // Only row 300 (I = -1) reaches the string arithmetic: the OR decides
  // every other row on its left side, the AND likewise.
  const ExprPtr bad = Gt(Add(Col("I"), Col("S")), Lit(int64_t{0}));
  EXPECT_EQ(failing_batches(Or(Gt(Col("I"), Lit(int64_t{0})), bad)), 1);
  EXPECT_EQ(failing_batches(And(Lt(Col("I"), Lit(int64_t{0})), bad)), 1);
  // I * INT64_MAX overflows wherever I > 1; the AND lets only row J
  // reach it (I = J + 1 there).
  const ExprPtr overflow = Gt(Mul(Col("I"), Lit(kMax)), Lit(int64_t{0}));
  EXPECT_EQ(failing_batches(And(Eq(Col("J"), Lit(int64_t{0})), overflow)), 0);
  EXPECT_EQ(failing_batches(And(Eq(Col("J"), Lit(int64_t{5})), overflow)), 1);
  // A null left side decides neither: every row reaches the right side.
  EXPECT_EQ(failing_batches(And(Gt(Col("E"), Lit(0.0)), Neg(Col("S")))), 2);
  EXPECT_EQ(failing_batches(Or(IsNull(Col("D")), Neg(Col("S")))), 2);
}

TEST(BoundExprTest, OverflowAndNonNumericErrorsMatchRowEvaluation) {
  Schema schema({Attribute::Numeric("I", DataType::kInt64)});
  Table t(schema);
  STATDB_ASSERT_OK(t.AppendRow({Value::Int(kMin)}));
  for (const ExprPtr& e :
       {Mul(Lit(kMax), Lit(int64_t{2})), Add(Lit(kMax), Lit(int64_t{1})),
        Sub(Lit(kMin), Lit(int64_t{1})), Neg(Col("I")), Abs(Col("I"))}) {
    Result<Value> row = e->Eval(t.GetRow(0), schema);
    ASSERT_FALSE(row.ok()) << e->ToString();
    EXPECT_EQ(row.status().code(), StatusCode::kOutOfRange);
    Result<BoundExpr> bound = BoundExpr::Bind(*e, schema);
    STATDB_ASSERT_OK(bound);
    std::vector<ColumnBuffer> bufs;
    RowBatch batch = FillBatch(t, *bound, 0, 1, &bufs);
    const uint16_t sel[] = {0};
    Status error;
    EXPECT_EQ(bound->Eval(batch, sel, 1, &error), 0u);
    EXPECT_EQ(error.ToString(), row.status().ToString());
  }
}

TEST(BoundExprTest, BindRejectsUnknownColumnsAndMalformedNodes) {
  const Schema schema = TestSchema();
  // Rejected up front, even where no row would ever reach the column.
  Result<BoundExpr> unknown = BoundExpr::Bind(
      *And(Lit(int64_t{0}), Gt(Col("NOPE"), Lit(1.0))), schema);
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  Result<BoundExpr> malformed =
      BoundExpr::Bind(*Expr::MakeUnary(ExprOp::kAdd, Col("I")), schema);
  EXPECT_EQ(malformed.status().code(), StatusCode::kInvalidArgument);
  Result<BoundExpr> ok = BoundExpr::Bind(*Add(Col("E"), Col("I")), schema);
  STATDB_ASSERT_OK(ok);
  EXPECT_EQ(ok->columns(), (std::vector<size_t>{0, 3}));
}

/// Select against the row-at-a-time definition, at the batch boundaries.
TEST(BoundExprTest, SelectMatchesRowLoopAtEveryBatchSize) {
  for (size_t rows : {0, 1, 499, 500, 501, 1203}) {
    Rng rng(rows + 1);
    const Table t = RandomTable(rows, &rng);
    const ExprPtr pred = Or(Gt(Col("D"), Col("E")), IsNull(Col("I")));
    Result<Table> got = Select(t, *pred);
    STATDB_ASSERT_OK(got);
    std::vector<size_t> want;
    for (size_t r = 0; r < rows; ++r) {
      if (IsTrue(pred->Eval(t.GetRow(r), t.schema()).value())) {
        want.push_back(r);
      }
    }
    ASSERT_EQ(got->num_rows(), want.size()) << rows << " rows";
    for (size_t k = 0; k < want.size(); ++k) {
      for (size_t c = 0; c < t.num_columns(); ++c) {
        EXPECT_TRUE(SameValue(got->At(k, c), t.At(want[k], c)));
      }
    }
  }
}

/// The k-column zip hands out one batch per page, cells matching the
/// column reads, through the final partial page, from row 0 and from
/// mid-page (an odd offset into the page's null bitmap).
TEST(BoundExprTest, ScanBatchesCoversEveryPageOnce) {
  for (size_t rows : {0, 1, 499, 500, 501, 1203}) {
    Rng rng(rows + 11);
    const Table t = RandomTable(rows, &rng);
    TestStorage ts(64);
    TransposedTable stored(t.schema(), &ts.pool);
    STATDB_ASSERT_OK(stored.LoadFrom(t));
    const std::vector<size_t> cols = {1, 2, 4};
    for (uint64_t begin : {uint64_t{0}, std::min<uint64_t>(rows, 137)}) {
      uint64_t next = begin;
      auto check = [&](uint64_t first, const RowBatch& batch) -> Status {
        EXPECT_EQ(first, next);
        const uint64_t page_end = (first / kBatchRows + 1) * kBatchRows;
        EXPECT_EQ(batch.size, std::min<uint64_t>(page_end, rows) - first);
        for (size_t c : cols) {
          for (size_t i = 0; i < batch.size; ++i) {
            EXPECT_TRUE(SameValue(CellValue(batch.columns[c], i),
                                  t.At(first + i, c)));
          }
        }
        next += batch.size;
        return Status::OK();
      };
      STATDB_ASSERT_OK(stored.ScanBatches(cols, begin, rows, check));
      EXPECT_EQ(next, rows);
    }
  }
}

/// The row-at-a-time predicate update ApplyUpdate used to run: build each
/// row, evaluate the predicate, then the value, coerce, compare, record.
Result<std::vector<CellChange>> ReferenceUpdate(const Table& t,
                                                const UpdateSpec& spec) {
  STATDB_ASSIGN_OR_RETURN(size_t target, t.schema().IndexOf(spec.column));
  const DataType type = t.schema().attr(target).type;
  std::vector<CellChange> out;
  for (uint64_t r = 0; r < t.num_rows(); ++r) {
    const Row row = t.GetRow(r);
    if (spec.predicate != nullptr) {
      STATDB_ASSIGN_OR_RETURN(Value keep,
                              spec.predicate->Eval(row, t.schema()));
      if (!IsTrue(keep)) continue;
    }
    Value v;
    if (spec.value != nullptr) {
      STATDB_ASSIGN_OR_RETURN(v, spec.value->Eval(row, t.schema()));
    }
    if (!v.is_null()) {
      if (type == DataType::kInt64 && v.type() == DataType::kDouble) {
        STATDB_ASSIGN_OR_RETURN(int64_t i, v.ToInt());
        v = Value::Int(i);
      } else if (type == DataType::kDouble && v.type() == DataType::kInt64) {
        v = Value::Real(double(v.AsInt()));
      } else if (v.type() != type) {
        return InvalidArgumentError(
            "update value type does not match column " + spec.column);
      }
    }
    if (row[target] == v) continue;
    out.push_back(CellChange{r, spec.column, row[target], v});
  }
  return out;
}

TEST(PredicateUpdateParityTest, ApplyUpdateMatchesRowLoop) {
  static const char* kTargets[] = {"I", "D", "E", "S"};
  int failed = 0;
  int changed = 0;
  for (size_t rows : {0, 1, 499, 500, 501, 1203}) {
    Rng rng(rows + 101);
    const Table t = RandomTable(rows, &rng);
    for (int i = 0; i < 60; ++i) {
      UpdateSpec spec;
      spec.column = kTargets[rng.UniformInt(0, 3)];
      if (!rng.Bernoulli(0.1)) spec.predicate = RandomTree(&rng, 3);
      if (!rng.Bernoulli(0.2)) spec.value = RandomTree(&rng, 2);
      const std::string what =
          spec.column + " := " +
          (spec.value ? spec.value->ToString() : std::string("NULL")) +
          " WHERE " +
          (spec.predicate ? spec.predicate->ToString() : std::string("*"));

      TestStorage ts(64);
      ConcreteView view("v", t.schema(), &ts.pool);
      STATDB_ASSERT_OK(view.LoadFrom(t));
      Result<std::vector<CellChange>> got = ApplyUpdate(view, spec);
      Result<std::vector<CellChange>> want = ReferenceUpdate(t, spec);
      ASSERT_EQ(got.ok(), want.ok()) << what;
      Table expected = t;
      if (!want.ok()) {
        ++failed;
        EXPECT_EQ(got.status().ToString(), want.status().ToString()) << what;
        EXPECT_EQ(view.version(), 0u);
      } else {
        changed += want->empty() ? 0 : 1;
        ASSERT_EQ(got->size(), want->size()) << what;
        for (size_t k = 0; k < want->size(); ++k) {
          const CellChange& g = (*got)[k];
          const CellChange& w = (*want)[k];
          EXPECT_EQ(g.row, w.row) << what;
          EXPECT_EQ(g.column, w.column);
          EXPECT_TRUE(SameValue(g.old_value, w.old_value)) << what;
          EXPECT_TRUE(SameValue(g.new_value, w.new_value)) << what;
          STATDB_ASSERT_OK(expected.SetCell(
              w.row, t.schema().IndexOf(w.column).value(), w.new_value));
        }
        EXPECT_EQ(view.version(), want->empty() ? 0u : 1u);
      }
      // A failed update wrote nothing; a successful one wrote its changes.
      Result<Table> snap = view.Snapshot();
      STATDB_ASSERT_OK(snap);
      for (size_t c = 0; c < t.num_columns(); ++c) {
        for (size_t r = 0; r < rows; ++r) {
          ASSERT_TRUE(SameValue(snap->At(r, c), expected.At(r, c)))
              << what << " row " << r << " col " << c;
        }
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_GT(failed, 20);
  EXPECT_GT(changed, 20);
}

}  // namespace
}  // namespace statdb
