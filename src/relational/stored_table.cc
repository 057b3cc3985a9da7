#include "relational/stored_table.h"

#include <algorithm>
#include <array>
#include <bit>
#include <string_view>

namespace statdb {

namespace {

// A sidecar is built only when it needs at most half the column's pages.
constexpr double kMinCompressionRatio = 2.0;

/// Writes the cells i < n of `cells` whose `valid` byte is 1 to out[0..)
/// in order, as doubles, and returns how many. Every cell is stored and
/// the write position advances past the valid ones only, so the loop has
/// no branch; `out` must have room for n.
template <typename T>
size_t CompactValid(const uint8_t* valid, const T* cells, size_t n,
                    double* out) {
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    out[k] = static_cast<double>(cells[i]);
    k += valid[i];
  }
  return k;
}

/// CompactValid over two row-aligned columns at once: the pairs whose
/// cells are both valid, to xs[0..) and ys[0..).
template <typename A, typename B>
size_t CompactPairs(const uint8_t* valid_a, const A* a, const uint8_t* valid_b,
                    const B* b, size_t n, double* xs, double* ys) {
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    xs[k] = static_cast<double>(a[i]);
    ys[k] = static_cast<double>(b[i]);
    k += valid_a[i] & valid_b[i];
  }
  return k;
}

}  // namespace

Status StoredRowTable::Append(const Row& row) {
  if (row.size() != schema_.size()) {
    return InvalidArgumentError("row arity does not match schema");
  }
  std::vector<uint8_t> bytes = SerializeRow(row);
  STATDB_ASSIGN_OR_RETURN(RecordId id, file_->Append(bytes));
  (void)id;
  return Status::OK();
}

Status StoredRowTable::LoadFrom(const Table& t) {
  if (!(t.schema() == schema_)) {
    return InvalidArgumentError("schema mismatch in LoadFrom");
  }
  for (size_t r = 0; r < t.num_rows(); ++r) {
    std::vector<uint8_t> bytes = SerializeRow(t.GetRow(r));
    STATDB_ASSIGN_OR_RETURN(RecordId id, file_->Append(bytes));
    (void)id;
  }
  return Status::OK();
}

Status StoredRowTable::Scan(
    const std::function<Status(const Row&)>& fn) const {
  return file_->Scan(
      [&fn](RecordId, const uint8_t* data, uint16_t len) -> Status {
        STATDB_ASSIGN_OR_RETURN(Row row, DeserializeRow(data, len));
        return fn(row);
      });
}

Result<Table> StoredRowTable::ReadAll() const {
  Table t(schema_);
  STATDB_RETURN_IF_ERROR(Scan([&t](const Row& row) -> Status {
    return t.AppendRow(row);
  }));
  return t;
}

Result<Row> StoredRowTable::ReadRecord(RecordId id) const {
  STATDB_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, file_->Read(id));
  return DeserializeRow(bytes.data(), bytes.size());
}

TransposedTable::TransposedTable(Schema schema, BufferPool* pool)
    : schema_(std::move(schema)), pool_(pool) {
  columns_.resize(schema_.size());
  for (auto& c : columns_) {
    c.file = std::make_unique<ColumnFile>(pool_);
  }
}

TransposedTable::TransposedTable(Schema schema, BufferPool* pool,
                                 std::vector<ColumnState> columns,
                                 uint64_t num_rows)
    : schema_(std::move(schema)), pool_(pool), num_rows_(num_rows) {
  columns_.resize(schema_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    ColumnState state =
        i < columns.size() ? std::move(columns[i]) : ColumnState{};
    columns_[i].file = std::make_unique<ColumnFile>(
        pool_, std::move(state.pages), state.count);
    columns_[i].labels = std::move(state.labels);
    for (size_t code = 0; code < columns_[i].labels.size(); ++code) {
      columns_[i].codes[columns_[i].labels[code]] =
          static_cast<int64_t>(code);
    }
  }
}

std::vector<TransposedTable::ColumnState> TransposedTable::ExportColumns()
    const {
  std::vector<ColumnState> out;
  out.reserve(columns_.size());
  for (const auto& c : columns_) {
    ColumnState state;
    state.pages = c.file->page_ids();
    state.count = c.file->size();
    state.labels = c.labels;
    out.push_back(std::move(state));
  }
  return out;
}

size_t TransposedTable::page_count() const {
  size_t total = 0;
  for (const auto& c : columns_) total += c.file->page_count();
  return total;
}

Result<std::optional<int64_t>> TransposedTable::EncodeCell(size_t col,
                                                           const Value& v) {
  if (v.is_null()) return std::optional<int64_t>();
  switch (schema_.attr(col).type) {
    case DataType::kInt64: {
      STATDB_ASSIGN_OR_RETURN(int64_t i, v.ToInt());
      return std::optional(i);
    }
    case DataType::kDouble: {
      STATDB_ASSIGN_OR_RETURN(double d, v.ToDouble());
      return std::optional(std::bit_cast<int64_t>(d));
    }
    case DataType::kString: {
      if (v.type() != DataType::kString) {
        return InvalidArgumentError("expected string cell");
      }
      ColumnStore& store = columns_[col];
      auto it = store.codes.find(v.AsStr());
      if (it != store.codes.end()) return std::optional(it->second);
      int64_t code = static_cast<int64_t>(store.labels.size());
      store.labels.push_back(v.AsStr());
      store.codes[v.AsStr()] = code;
      return std::optional(code);
    }
    default:
      return InvalidArgumentError("cannot encode cell of this type");
  }
}

Value TransposedTable::DecodeCell(size_t col,
                                  std::optional<int64_t> raw) const {
  if (!raw.has_value()) return Value::Null();
  switch (schema_.attr(col).type) {
    case DataType::kInt64:
      return Value::Int(*raw);
    case DataType::kDouble:
      return Value::Real(std::bit_cast<double>(*raw));
    case DataType::kString: {
      const auto& labels = columns_[col].labels;
      size_t idx = static_cast<size_t>(*raw);
      if (idx < labels.size()) return Value::Str(labels[idx]);
      return Value::Null();
    }
    default:
      return Value::Null();
  }
}

Status TransposedTable::Append(const Row& row) {
  if (row.size() != schema_.size()) {
    return InvalidArgumentError("row arity does not match schema");
  }
  for (size_t c = 0; c < row.size(); ++c) {
    STATDB_ASSIGN_OR_RETURN(std::optional<int64_t> cell, EncodeCell(c, row[c]));
    STATDB_RETURN_IF_ERROR(columns_[c].file->Append(cell));
    // The row changed every column; the immutable sidecars are stale.
    DropSidecar(c);
  }
  ++num_rows_;
  return Status::OK();
}

Status TransposedTable::LoadFrom(const Table& t) {
  if (!(t.schema() == schema_)) {
    return InvalidArgumentError("schema mismatch in LoadFrom");
  }
  if (num_rows_ != 0) {
    return FailedPreconditionError("bulk load into a non-empty table");
  }
  // Load column-at-a-time so each ColumnFile occupies a contiguous page
  // range on the device — the physical property that makes transposed
  // scans sequential (§2.6). Row-at-a-time Append would interleave the
  // columns' pages and turn every column scan into a seek storm.
  for (size_t c = 0; c < schema_.size(); ++c) {
    const std::vector<Value>& col = t.Column(c);
    for (size_t r = 0; r < t.num_rows(); ++r) {
      STATDB_ASSIGN_OR_RETURN(std::optional<int64_t> cell,
                              EncodeCell(c, col[r]));
      STATDB_RETURN_IF_ERROR(columns_[c].file->Append(cell));
    }
  }
  num_rows_ = t.num_rows();
  return Status::OK();
}

Result<std::vector<Value>> TransposedTable::ReadColumn(
    const std::string& name) const {
  STATDB_ASSIGN_OR_RETURN(size_t col, schema_.IndexOf(name));
  std::vector<Value> out;
  out.reserve(num_rows_);
  STATDB_RETURN_IF_ERROR(columns_[col].file->ScanPages(
      0, num_rows_,
      [this, col, &out](uint64_t, const ColumnPageView& page) -> Status {
        for (size_t i = 0; i < page.size(); ++i) {
          out.push_back(DecodeCell(col, page.valid(i)
                                            ? std::optional(page.raw(i))
                                            : std::nullopt));
        }
        return Status::OK();
      }));
  return out;
}

Result<std::vector<double>> TransposedTable::ReadNumericColumn(
    const std::string& name) const {
  return ReadNumericRange(name, 0, num_rows_);
}

Result<std::vector<double>> TransposedTable::ReadNumericRange(
    const std::string& name, uint64_t begin, uint64_t end) const {
  STATDB_ASSIGN_OR_RETURN(size_t col, schema_.IndexOf(name));
  DataType t = schema_.attr(col).type;
  if (t != DataType::kInt64 && t != DataType::kDouble) {
    return InvalidArgumentError("column is not numeric: " + name);
  }
  end = std::min(end, num_rows_);
  // Sized for every row up front; each batch writes every cell and
  // advances past the valid ones only (branchless compaction), and the
  // tail is cut off at the end.
  std::vector<double> out(end > begin ? end - begin : 0);
  size_t k = 0;
  const bool is_int = t == DataType::kInt64;
  STATDB_RETURN_IF_ERROR(ScanBatches(
      {col}, begin, end, [&](uint64_t, const RowBatch& batch) -> Status {
        const ColumnVector& v = batch.columns[col];
        double* dst = out.data() + k;
        k += is_int ? CompactValid(v.valid, v.ints, batch.size, dst)
                    : CompactValid(v.valid, v.reals, batch.size, dst);
        return Status::OK();
      }));
  out.resize(k);
  return out;
}

Status TransposedTable::ScanNumericPairs(const std::string& name_a,
                                         const std::string& name_b,
                                         uint64_t begin, uint64_t end,
                                         const PairBatchFn& fn) const {
  STATDB_ASSIGN_OR_RETURN(size_t col_a, schema_.IndexOf(name_a));
  STATDB_ASSIGN_OR_RETURN(size_t col_b, schema_.IndexOf(name_b));
  auto numeric = [this](size_t col) {
    DataType t = schema_.attr(col).type;
    return t == DataType::kInt64 || t == DataType::kDouble;
  };
  // The serial bivariate path silently skips cells it cannot coerce to a
  // number, so a non-numeric column yields zero pairs, not an error.
  if (!numeric(col_a) || !numeric(col_b)) return Status::OK();
  const bool int_a = schema_.attr(col_a).type == DataType::kInt64;
  const bool int_b = schema_.attr(col_b).type == DataType::kInt64;
  // One page's pairs at a time: the buffers stay in cache, and no
  // output grows.
  std::array<double, kBatchRows> xs, ys;
  return ScanBatches(
      {col_a, col_b}, begin, end,
      [&](uint64_t, const RowBatch& batch) -> Status {
        const ColumnVector& a = batch.columns[col_a];
        const ColumnVector& b = batch.columns[col_b];
        auto compact = [&](const auto* cells_a, const auto* cells_b) {
          return CompactPairs(a.valid, cells_a, b.valid, cells_b, batch.size,
                              xs.data(), ys.data());
        };
        const size_t n = int_a ? (int_b ? compact(a.ints, b.ints)
                                        : compact(a.ints, b.reals))
                               : (int_b ? compact(a.reals, b.ints)
                                        : compact(a.reals, b.reals));
        return n == 0 ? Status::OK() : fn(xs.data(), ys.data(), n);
      });
}

Status TransposedTable::ScanBatches(const std::vector<size_t>& cols,
                                    uint64_t begin, uint64_t end,
                                    const BatchFn& fn,
                                    const ChangeSet* overlay) const {
  static_assert(kBatchRows == ColumnFile::kCellsPerPage);
  for (size_t c : cols) {
    if (c >= schema_.size()) return OutOfRangeError("no column position");
  }
  end = std::min(end, num_rows_);
  // Every column keeps row r on page r / kBatchRows. The page copies live
  // on the heap, one buffer per column, allocated once per scan.
  std::vector<ColumnBuffer> bufs(cols.size());
  RowBatch batch;
  batch.columns.resize(schema_.size());
  // Per column, the overlay's cells at or after the current page.
  std::vector<const RawChange*> next(cols.size(), nullptr);
  std::vector<const RawChange*> last(cols.size(), nullptr);
  for (size_t k = 0; k < cols.size(); ++k) {
    batch.columns[cols[k]] = bufs[k].View(schema_.attr(cols[k]).type);
    if (overlay == nullptr) continue;
    for (const ColumnChange& change : *overlay) {
      if (change.column != cols[k]) continue;
      const auto& cells = change.cells;
      next[k] = std::lower_bound(cells.data(), cells.data() + cells.size(),
                                 begin, [](const RawChange& c, uint64_t row) {
                                   return c.row() < row;
                                 });
      last[k] = cells.data() + cells.size();
    }
  }
  for (uint64_t lo = begin; lo < end;) {
    const uint64_t hi =
        std::min<uint64_t>(end, (lo / kBatchRows + 1) * kBatchRows);
    for (size_t k = 0; k < cols.size(); ++k) {
      ColumnBuffer& buf = bufs[k];
      const ColumnStore& store = columns_[cols[k]];
      const DataType type = schema_.attr(cols[k]).type;
      size_t copied = 0;
      STATDB_RETURN_IF_ERROR(store.file->ScanPages(
          lo, hi, [&](uint64_t, const ColumnPageView& page) -> Status {
            page.CopyValidity(buf.valid.data());
            if (type == DataType::kDouble) {
              page.CopyCells(buf.reals.data());
            } else {
              page.CopyCells(buf.ints.data());
            }
            copied = page.size();
            return Status::OK();
          }));
      if (copied != hi - lo) {
        return DataLossError("column file shorter than its table");
      }
      for (; next[k] != last[k] && next[k]->row() < hi; ++next[k]) {
        const size_t i = size_t(next[k]->row() - lo);
        const std::optional<int64_t> cell = next[k]->new_cell();
        buf.valid[i] = cell.has_value() ? 1 : 0;
        if (type == DataType::kDouble) {
          buf.reals[i] = std::bit_cast<double>(cell.value_or(0));
        } else {
          buf.ints[i] = cell.value_or(0);
        }
      }
      if (type != DataType::kString) continue;
      for (size_t i = 0; i < copied; ++i) {
        // An unknown code decodes as missing, as DecodeCell does.
        const uint64_t code = uint64_t(buf.ints[i]);
        const bool known = buf.valid[i] && code < store.labels.size();
        buf.valid[i] = known ? 1 : 0;
        buf.strs[i] = known ? std::string_view(store.labels[code])
                            : std::string_view();
      }
    }
    batch.size = size_t(hi - lo);
    STATDB_RETURN_IF_ERROR(fn(lo, batch));
    lo = hi;
  }
  return Status::OK();
}

Result<Row> TransposedTable::ReadRow(uint64_t row) const {
  if (row >= num_rows_) {
    return OutOfRangeError("row index out of range");
  }
  Row out;
  out.reserve(schema_.size());
  for (size_t c = 0; c < schema_.size(); ++c) {
    STATDB_ASSIGN_OR_RETURN(std::optional<int64_t> raw,
                            columns_[c].file->Get(row));
    out.push_back(DecodeCell(c, raw));
  }
  return out;
}

Result<Value> TransposedTable::ReadCell(uint64_t row,
                                        const std::string& col) const {
  STATDB_ASSIGN_OR_RETURN(size_t c, schema_.IndexOf(col));
  if (row >= num_rows_) {
    return OutOfRangeError("row index out of range");
  }
  STATDB_ASSIGN_OR_RETURN(std::optional<int64_t> raw, columns_[c].file->Get(row));
  return DecodeCell(c, raw);
}

Status TransposedTable::WriteCell(uint64_t row, const std::string& col,
                                  const Value& v) {
  STATDB_ASSIGN_OR_RETURN(size_t c, schema_.IndexOf(col));
  if (row >= num_rows_) {
    return OutOfRangeError("row index out of range");
  }
  STATDB_ASSIGN_OR_RETURN(std::optional<int64_t> cell, EncodeCell(c, v));
  return Install({ColumnChange{c, {RawChange(row, std::nullopt, cell)}}});
}

Status TransposedTable::Install(const ChangeSet& set, bool undo) {
  for (const ColumnChange& change : set) {
    if (change.column >= columns_.size()) {
      return OutOfRangeError("no column position");
    }
    if (change.cells.empty()) continue;
    // Sidecars are immutable; the change invalidates this column's.
    DropSidecar(change.column);
    STATDB_RETURN_IF_ERROR(columns_[change.column].file->SetCells(
        change.cells.size(), [&change, undo](size_t i) {
          const RawChange& c = change.cells[i];
          return std::pair(c.row(), undo ? c.old_cell() : c.new_cell());
        }));
  }
  return Status::OK();
}

Status TransposedTable::AddColumn(const Attribute& attr) {
  if (schema_.Contains(attr.name)) {
    return AlreadyExistsError("column already exists: " + attr.name);
  }
  schema_.Add(attr);
  ColumnStore store;
  store.file = std::make_unique<ColumnFile>(pool_);
  for (uint64_t i = 0; i < num_rows_; ++i) {
    STATDB_RETURN_IF_ERROR(store.file->Append(std::nullopt));
  }
  columns_.push_back(std::move(store));
  return Status::OK();
}

void TransposedTable::DropSidecar(size_t col) {
  // Detach, don't destroy: a scan holding a CompressedSidecarRef keeps
  // the old run pages alive until it finishes.
  MutexLock lock(sidecar_mu_);
  columns_[col].compressed.reset();
}

Status TransposedTable::CompressColumns() {
  for (size_t c = 0; c < columns_.size(); ++c) {
    ColumnStore& store = columns_[c];
    {
      MutexLock lock(sidecar_mu_);
      if (store.compressed != nullptr) continue;
    }
    if (store.file->size() == 0) continue;
    // Gather the raw cells and count runs BEFORE allocating any device
    // page: the device has no free list, so a speculative sidecar that
    // turns out not to compress would leak its pages forever.
    Result<std::vector<std::optional<int64_t>>> gathered =
        store.file->ReadAll();
    if (!gathered.ok()) continue;  // best-effort: keep no sidecar
    const std::vector<std::optional<int64_t>>& cells = *gathered;
    size_t runs = RleEncode(cells).size();
    size_t est_pages = (runs + CompressedColumnFile::kRunsPerPage - 1) /
                       CompressedColumnFile::kRunsPerPage;
    if (est_pages == 0 ||
        double(store.file->page_count()) <
            kMinCompressionRatio * double(est_pages)) {
      continue;  // would not compress enough to be worth the pages
    }
    auto sidecar = std::make_shared<CompressedColumnFile>(pool_);
    if (!sidecar->Load(cells).ok()) continue;  // e.g. device full
    MutexLock lock(sidecar_mu_);
    store.compressed = std::move(sidecar);
  }
  return Status::OK();
}

const CompressedColumnFile* TransposedTable::CompressedSidecar(
    const std::string& name) const {
  auto idx = schema_.IndexOf(name);
  if (!idx.ok()) return nullptr;
  MutexLock lock(sidecar_mu_);
  return columns_[*idx].compressed.get();
}

std::shared_ptr<const CompressedColumnFile>
TransposedTable::CompressedSidecarRef(const std::string& name) const {
  auto idx = schema_.IndexOf(name);
  if (!idx.ok()) return nullptr;
  MutexLock lock(sidecar_mu_);
  return columns_[*idx].compressed;
}

Result<Table> TransposedTable::ReadAll() const {
  Table t(schema_);
  std::vector<std::vector<Value>> cols;
  cols.reserve(schema_.size());
  for (size_t c = 0; c < schema_.size(); ++c) {
    STATDB_ASSIGN_OR_RETURN(std::vector<Value> col,
                            ReadColumn(schema_.attr(c).name));
    cols.push_back(std::move(col));
  }
  for (uint64_t r = 0; r < num_rows_; ++r) {
    Row row;
    row.reserve(schema_.size());
    for (size_t c = 0; c < schema_.size(); ++c) {
      row.push_back(cols[c][r]);
    }
    STATDB_RETURN_IF_ERROR(t.AppendRow(std::move(row)));
  }
  return t;
}

}  // namespace statdb
