#include "core/view.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <functional>
#include <optional>

#include "relational/bound_expr.h"

namespace statdb {
namespace {

/// Cell `i` of a batch column in its stored form.
std::optional<int64_t> RawCell(const ColumnVector& v, size_t i) {
  if (!v.valid[i]) return std::nullopt;
  return v.type == DataType::kDouble ? std::bit_cast<int64_t>(v.reals[i])
                                     : v.ints[i];
}

/// Cell `i` of `result` (nullptr: every cell missing) in the stored
/// form of column `col`, coerced *before* it is staged so the stored
/// cell, the history record and the maintenance delta see one value: an
/// int widens into a double column, a real truncates into an int one
/// (OUT_OF_RANGE outside int64, as Value::ToInt), a string joins the
/// column's dictionary.
Result<std::optional<int64_t>> StoredCell(TransposedTable& table, size_t col,
                                          const ColumnVector* result,
                                          size_t i) {
  if (result == nullptr || result->type == DataType::kNull ||
      !result->valid[i]) {
    return std::optional<int64_t>();
  }
  const DataType from = result->type;
  const DataType to = table.schema().attr(col).type;
  if (from == DataType::kInt64 && to == DataType::kInt64) {
    return std::optional(result->ints[i]);
  }
  if (from != DataType::kString && to == DataType::kDouble) {
    return std::optional(std::bit_cast<int64_t>(
        from == DataType::kInt64 ? double(result->ints[i]) : result->reals[i]));
  }
  if (from == DataType::kDouble && to == DataType::kInt64) {
    return table.EncodeCell(col, Value::Real(result->reals[i]));
  }
  if (from == DataType::kString && to == DataType::kString) {
    return table.EncodeCell(col, Value::Str(std::string(result->strs[i])));
  }
  return InvalidArgumentError("update value type does not match column " +
                              table.schema().attr(col).name);
}

/// Two raw cells of a `type` column are equal under Value rules: doubles
/// as Value::Compare orders them (neither less nor greater), strings by
/// dictionary code.
bool SameCell(DataType type, std::optional<int64_t> a,
              std::optional<int64_t> b) {
  if (!a.has_value() || !b.has_value()) return a.has_value() == b.has_value();
  if (type != DataType::kDouble) return *a == *b;
  const double x = std::bit_cast<double>(*a);
  const double y = std::bit_cast<double>(*b);
  return !(x < y) && !(x > y);
}

/// Source of write generations, shared by every view so that a view
/// rebuilt under the same name never repeats one.
std::atomic<uint64_t> next_generation{1};

}  // namespace

ConcreteView::Generation::Generation()
    : current(next_generation.fetch_add(1, std::memory_order_relaxed)) {}

void ConcreteView::Generation::Bump() {
  previous = current;
  current = next_generation.fetch_add(1, std::memory_order_relaxed);
}

Status ConcreteView::LoadFrom(const Table& t) {
  for (Generation& g : generations_) g.Bump();
  return table_->LoadFrom(t);
}

Status ConcreteView::Install(const ChangeSet& set, bool undo) {
  // Bumped before the write: a failed install may have changed cells.
  for (const ColumnChange& change : set) {
    if (change.column < generations_.size() && !change.cells.empty()) {
      generations_[change.column].Bump();
    }
  }
  return table_->Install(set, undo);
}

Status ConcreteView::WriteCell(uint64_t row, const std::string& column,
                               const Value& v) {
  STATDB_ASSIGN_OR_RETURN(size_t idx, schema().IndexOf(column));
  generations_[idx].Bump();
  return table_->WriteCell(row, column, v);
}

Status ConcreteView::AddColumn(const Attribute& attr) {
  STATDB_RETURN_IF_ERROR(table_->AddColumn(attr));
  generations_.emplace_back();
  return Status::OK();
}

Status ConcreteView::Stage(const std::string& column, const Expr* predicate,
                           const Expr* value,
                           const std::vector<uint64_t>* rows,
                           ChangeSet* staged, uint64_t* pages) {
  const Schema& schema = table_->schema();
  STATDB_ASSIGN_OR_RETURN(size_t target, schema.IndexOf(column));
  const Attribute& attr = schema.attr(target);
  for (const ColumnChange& c : *staged) {
    if (c.column == target) {
      return FailedPreconditionError("column " + column +
                                     " is already staged (a rule reads it)");
    }
  }
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

  ColumnChange fresh;
  fresh.column = target;
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
    const ColumnVector* result = val.has_value() ? &val->result() : nullptr;
    for (size_t k = 0; k < m; ++k) {
      const uint16_t r = picked[k];
      STATDB_ASSIGN_OR_RETURN(std::optional<int64_t> new_cell,
                              StoredCell(*table_, target, result, r));
      const std::optional<int64_t> old_cell = RawCell(old_cells, r);
      if (SameCell(attr.type, old_cell, new_cell)) continue;
      fresh.cells.emplace_back(first_row + r, old_cell, new_cell);
    }
    return err == BoundExpr::kNoError ? Status::OK() : error;
  };

  if (rows == nullptr) {
    STATDB_RETURN_IF_ERROR(
        table_->ScanBatches(cols, 0, num_rows(), on_batch, staged));
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
          on_batch, staged));
    }
  }
  if (pages != nullptr) *pages += batches * cols.size();
  if (!fresh.cells.empty()) staged->push_back(std::move(fresh));
  return Status::OK();
}

}  // namespace statdb
