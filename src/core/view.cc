#include "core/view.h"

#include <algorithm>
#include <array>
#include <functional>
#include <optional>

#include "relational/bound_expr.h"

namespace statdb {
namespace {

/// Coerces a new cell value to the column's declared type *before* it is
/// logged: the stored cell, the history record and the maintenance delta
/// must all see the same value (an int column truncates real-valued
/// expressions).
Result<Value> Coerce(Value v, const Attribute& target) {
  if (v.is_null() || v.type() == target.type) return v;
  if (target.type == DataType::kInt64 && v.type() == DataType::kDouble) {
    STATDB_ASSIGN_OR_RETURN(int64_t as_int, v.ToInt());
    return Value::Int(as_int);
  }
  if (target.type == DataType::kDouble && v.type() == DataType::kInt64) {
    return Value::Real(double(v.AsInt()));
  }
  return InvalidArgumentError("update value type does not match column " +
                              target.name);
}

}  // namespace

Result<std::vector<CellChange>> ConcreteView::ApplyUpdate(
    const UpdateSpec& spec, uint64_t* pages) {
  STATDB_ASSIGN_OR_RETURN(
      std::vector<CellChange> changes,
      Assign(spec.column, spec.predicate.get(), spec.value.get(),
             /*rows=*/nullptr, pages));
  if (!changes.empty()) ++version_;
  return changes;
}

Result<std::vector<CellChange>> ConcreteView::Recompute(
    const std::string& column, const Expr& expr,
    const std::vector<uint64_t>* rows) {
  return Assign(column, /*predicate=*/nullptr, &expr, rows,
                /*pages=*/nullptr);
}

Result<std::vector<CellChange>> ConcreteView::Assign(
    const std::string& column, const Expr* predicate, const Expr* value,
    const std::vector<uint64_t>* rows, uint64_t* pages) {
  const Schema& schema = table_->schema();
  STATDB_ASSIGN_OR_RETURN(size_t target, schema.IndexOf(column));
  const Attribute& attr = schema.attr(target);
  if (rows != nullptr) {
    if (std::adjacent_find(rows->begin(), rows->end(),
                           std::greater_equal<uint64_t>()) != rows->end()) {
      return InvalidArgumentError("rows must ascend");
    }
    if (!rows->empty() && rows->back() >= num_rows()) {
      return OutOfRangeError("row index out of range");
    }
  }

  // Bind once: unknown columns fail here, before any page is read. The
  // scan reads only the columns the update touches — the transposed
  // layout makes this the cheap path.
  std::vector<size_t> cols = {target};
  std::optional<BoundExpr> pred;
  std::optional<BoundExpr> val;
  if (predicate != nullptr) {
    STATDB_ASSIGN_OR_RETURN(BoundExpr bound,
                            BoundExpr::Bind(*predicate, schema));
    pred.emplace(std::move(bound));
    cols.insert(cols.end(), pred->columns().begin(), pred->columns().end());
  }
  if (value != nullptr) {
    STATDB_ASSIGN_OR_RETURN(BoundExpr bound, BoundExpr::Bind(*value, schema));
    val.emplace(std::move(bound));
    cols.insert(cols.end(), val->columns().begin(), val->columns().end());
  }
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());

  // Evaluate every batch first; write only once all of them succeeded.
  std::vector<CellChange> changes;
  std::array<uint16_t, kBatchRows> sel{};
  std::array<uint16_t, kBatchRows> kept{};
  size_t next = 0;  // first entry of `rows` not yet visited
  uint64_t batches = 0;
  auto on_batch = [&](uint64_t first_row, const RowBatch& batch) -> Status {
    ++batches;
    size_t n = 0;
    if (rows == nullptr) {
      for (; n < batch.size; ++n) sel[n] = uint16_t(n);
    } else {
      while (next < rows->size() && (*rows)[next] < first_row + batch.size) {
        sel[n++] = uint16_t((*rows)[next++] - first_row);
      }
    }
    // The first failing row of the predicate, then of the value on the
    // rows the predicate kept before it, then of the coercion below: the
    // error the row-at-a-time loop would have met first.
    Status error;
    size_t err = BoundExpr::kNoError;
    const uint16_t* picked = sel.data();
    size_t m = n;
    if (pred.has_value()) {
      err = pred->Filter(batch, sel.data(), n, kept.data(), &m, &error);
      picked = kept.data();
    }
    if (val.has_value()) {
      const size_t e = val->Eval(batch, picked, m, &error);
      if (e != BoundExpr::kNoError) {
        err = e;
        m = RowsBefore(picked, m, e);
      }
    }
    const ColumnVector& old_cells = batch.columns[target];
    for (size_t k = 0; k < m; ++k) {
      const uint16_t r = picked[k];
      STATDB_ASSIGN_OR_RETURN(
          Value new_value,
          Coerce(val.has_value() ? CellValue(val->result(), r) : Value(),
                 attr));
      Value old_value = CellValue(old_cells, r);
      if (old_value == new_value) continue;
      changes.push_back(CellChange{first_row + r, column, std::move(old_value),
                                   std::move(new_value)});
    }
    return err == BoundExpr::kNoError ? Status::OK() : error;
  };

  if (rows == nullptr) {
    STATDB_RETURN_IF_ERROR(table_->ScanBatches(cols, 0, num_rows(), on_batch));
  } else {
    // One zip per run of consecutive pages that hold rows.
    for (size_t i = 0; i < rows->size();) {
      const uint64_t first_page = (*rows)[i] / kBatchRows;
      uint64_t last_page = first_page;
      for (; i < rows->size() && (*rows)[i] / kBatchRows <= last_page + 1;
           ++i) {
        last_page = (*rows)[i] / kBatchRows;
      }
      STATDB_RETURN_IF_ERROR(table_->ScanBatches(
          cols, first_page * kBatchRows, (last_page + 1) * kBatchRows,
          on_batch));
    }
  }
  if (pages != nullptr) *pages += batches * cols.size();

  for (const CellChange& ch : changes) {
    STATDB_RETURN_IF_ERROR(table_->WriteCell(ch.row, column, ch.new_value));
  }
  return changes;
}

Status ConcreteView::WriteCell(uint64_t row, const std::string& column,
                               const Value& v) {
  return table_->WriteCell(row, column, v);
}

}  // namespace statdb
