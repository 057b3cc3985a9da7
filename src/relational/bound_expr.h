#ifndef STATDB_RELATIONAL_BOUND_EXPR_H_
#define STATDB_RELATIONAL_BOUND_EXPR_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "relational/expr.h"
#include "relational/schema.h"
#include "relational/value.h"
#include "storage/column_file.h"

namespace statdb {

/// Rows per batch: one column page, so a page-at-a-time scan hands the
/// evaluator whole pages.
inline constexpr size_t kBatchRows = ColumnFile::kCellsPerPage;

/// One column of a row batch, or one expression node's result over it:
/// typed cells plus a validity mask (0 = missing). Only the cell array
/// matching `type` is read; a kNull vector (a null literal) has no valid
/// cell. Borrowed: the arrays belong to whoever filled the batch.
struct ColumnVector {
  DataType type = DataType::kNull;
  const uint8_t* valid = nullptr;
  const int64_t* ints = nullptr;
  const double* reals = nullptr;
  const std::string_view* strs = nullptr;
};

/// Cell `i` of `v` as a Value (null when missing).
Value CellValue(const ColumnVector& v, size_t i);

/// Up to kBatchRows consecutive rows, column-major. `columns` is indexed
/// by schema position; only the columns a scan was asked for are set.
struct RowBatch {
  size_t size = 0;
  std::vector<ColumnVector> columns;
};

/// Owned cell storage for one batch column: what a scan copies a page
/// into, or an in-memory table's Values are unpacked into.
struct ColumnBuffer {
  std::array<uint8_t, kBatchRows> valid{};
  /// int64 cells, or dictionary codes of a string column.
  std::array<int64_t, kBatchRows> ints{};
  std::array<double, kBatchRows> reals{};
  std::array<std::string_view, kBatchRows> strs{};

  /// Unpacks `n` <= kBatchRows Values of a `type` column. Ints widen
  /// into a double column; any other mismatch is INVALID_ARGUMENT. String
  /// cells are viewed, not copied: `cells` must outlive the batch.
  Status Fill(DataType type, const Value* cells, size_t n);

  ColumnVector View(DataType type) const;
};

/// An expression bound to a schema: every column resolved to its schema
/// position and every node given its static result type, once. It then
/// evaluates a batch at a time, dispatching on op and type once per node
/// per batch. Results and errors are exactly those of Expr::Eval on each
/// row: AND/OR evaluate their right side only on the rows their left side
/// left undecided, so an error is raised iff some row reaches it, and the
/// error reported is the one Expr::Eval meets first in row order.
///
/// Holds per-node result buffers, so one BoundExpr serves one scan at a
/// time.
class BoundExpr {
 public:
  /// Returned instead of a row when evaluation succeeded.
  static constexpr size_t kNoError = SIZE_MAX;

  /// NOT_FOUND when `expr` names a column `schema` lacks;
  /// INVALID_ARGUMENT for a node with the wrong number of operands.
  static Result<BoundExpr> Bind(const Expr& expr, const Schema& schema);

  BoundExpr(BoundExpr&&) noexcept;
  BoundExpr& operator=(BoundExpr&&) noexcept;
  BoundExpr(const BoundExpr&) = delete;
  BoundExpr& operator=(const BoundExpr&) = delete;
  ~BoundExpr();

  /// Schema positions of the columns the expression reads, ascending.
  const std::vector<size_t>& columns() const { return columns_; }

  /// Evaluates batch rows sel[0, n) (ascending positions). Returns the
  /// first row at which Expr::Eval fails, with its error in *error, or
  /// kNoError. result() holds the cells of the selected rows before it.
  size_t Eval(const RowBatch& batch, const uint16_t* sel, size_t n,
              Status* error);

  /// The last Eval's cells, indexed by batch position.
  const ColumnVector& result() const;

  /// Evaluates like Eval, then writes the selected rows before the error
  /// row where the result is true (IsTrue) to `out`, ascending, and their
  /// count to *out_n. Returns what Eval returned.
  size_t Filter(const RowBatch& batch, const uint16_t* sel, size_t n,
                uint16_t* out, size_t* out_n, Status* error);

 private:
  struct Node;

  BoundExpr();
  size_t AddNode(const Expr& e, const Schema& schema, Status* status);
  size_t EvalNode(size_t i, const RowBatch& batch, const uint16_t* sel,
                  size_t n, Status* error);

  std::vector<Node> nodes_;  // nodes_[0] is the root
  std::vector<size_t> columns_;
};

/// Number of leading entries of the ascending selection sel[0, n) that
/// lie before batch row `row` (all n for BoundExpr::kNoError).
size_t RowsBefore(const uint16_t* sel, size_t n, size_t row);

}  // namespace statdb

#endif  // STATDB_RELATIONAL_BOUND_EXPR_H_
