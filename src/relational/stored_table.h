#ifndef STATDB_RELATIONAL_STORED_TABLE_H_
#define STATDB_RELATIONAL_STORED_TABLE_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "relational/bound_expr.h"
#include "relational/change_set.h"
#include "relational/table.h"
#include "storage/buffer_pool.h"
#include "storage/column_file.h"
#include "storage/compressed_column_file.h"
#include "storage/row_file.h"

namespace statdb {

/// A table persisted row-at-a-time in a heap file (NSM). This is the
/// layout of the *raw database on tape* and the baseline the paper's
/// transposed-file argument (§2.6) is measured against.
class StoredRowTable {
 public:
  StoredRowTable(Schema schema, BufferPool* pool)
      : schema_(std::move(schema)), file_(std::make_unique<RowFile>(pool)) {}

  /// Re-attaches to an existing on-device heap file (crash recovery):
  /// page list and record count come from a durable manifest.
  StoredRowTable(Schema schema, BufferPool* pool, std::vector<PageId> pages,
                 uint64_t record_count)
      : schema_(std::move(schema)),
        file_(std::make_unique<RowFile>(pool, std::move(pages),
                                        record_count)) {}

  /// Backing pages, for the durability manifest.
  const std::vector<PageId>& page_ids() const { return file_->page_ids(); }

  const Schema& schema() const { return schema_; }
  uint64_t num_rows() const { return file_->record_count(); }
  size_t page_count() const { return file_->page_count(); }

  Status Append(const Row& row);

  /// Bulk-loads every row of `t` (schemas must match).
  Status LoadFrom(const Table& t);

  /// Sequential scan in file order; rows are deserialized per record —
  /// every page of the file is touched even if `fn` uses one column.
  Status Scan(const std::function<Status(const Row&)>& fn) const;

  /// Reads the whole table back into memory.
  Result<Table> ReadAll() const;

  /// Point read of one record — touches exactly one page, the access
  /// pattern row stores are good at (E3).
  Result<Row> ReadRecord(RecordId id) const;

 private:
  Schema schema_;
  std::unique_ptr<RowFile> file_;
};

/// A table persisted as a transposed (fully inverted / DSM) file: one
/// ColumnFile per attribute (§2.6, RAPID/ALDS style). Statistical
/// operations touching k of m columns read only k column files; an
/// "informational" whole-row read touches one page in every column file.
///
/// Strings are dictionary-encoded per column (code + per-table code list),
/// mirroring the paper's observation that statistical data is stored
/// encoded (§2.1).
class TransposedTable {
 public:
  TransposedTable(Schema schema, BufferPool* pool);

  /// Durable shape of one column: everything recovery needs to re-attach
  /// its ColumnFile and rebuild the string dictionary (the label->code
  /// map is derived from `labels` order).
  struct ColumnState {
    std::vector<PageId> pages;
    uint64_t count = 0;
    std::vector<std::string> labels;
  };

  /// Re-attaches to existing on-device column files (crash recovery).
  /// `columns` must be schema-ordered and schema-sized.
  TransposedTable(Schema schema, BufferPool* pool,
                  std::vector<ColumnState> columns, uint64_t num_rows);

  /// Snapshot of every column's durable shape, schema-ordered.
  std::vector<ColumnState> ExportColumns() const;

  const Schema& schema() const { return schema_; }
  uint64_t num_rows() const { return num_rows_; }
  size_t page_count() const;

  Status Append(const Row& row);
  Status LoadFrom(const Table& t);

  /// Reads one full column as Values (decoding the dictionary).
  Result<std::vector<Value>> ReadColumn(const std::string& name) const;

  /// Non-null numeric cells of a column as doubles.
  Result<std::vector<double>> ReadNumericColumn(const std::string& name) const;

  /// Non-null numeric cells of rows [begin, end) in row order — one
  /// shard of a chunked parallel scan. Concatenating the shards of a
  /// partition of [0, num_rows) in order reproduces ReadNumericColumn
  /// bit-for-bit. Thread-safe for concurrent readers (the buffer pool
  /// synchronizes page access).
  Result<std::vector<double>> ReadNumericRange(const std::string& name,
                                               uint64_t begin,
                                               uint64_t end) const;

  /// The k-column page zip: calls `fn(first_row, batch)` once per page
  /// of rows [begin, end), in order; batch.columns[c] holds the cells of
  /// each schema position c in `cols` (string cells view the column's
  /// dictionary). Each column's page is copied out and its pin released
  /// before the next column's page is pinned, so the zip never holds two
  /// pins (see ColumnFile::ScanPages). With an `overlay`, cells read as
  /// if its new cells were installed. A non-OK status from `fn` stops the
  /// scan and is returned. Thread-safe like ReadNumericRange.
  using BatchFn =
      std::function<Status(uint64_t first_row, const RowBatch& batch)>;
  Status ScanBatches(const std::vector<size_t>& cols, uint64_t begin,
                     uint64_t end, const BatchFn& fn,
                     const ChangeSet* overlay = nullptr) const;

  /// Row-aligned numeric (x, y) pairs of rows [begin, end) of two
  /// columns, dropping rows where either cell is missing (pairwise
  /// deletion — the same rule the serial bivariate path applies), one
  /// page at a time: `fn(xs, ys, n)` once per page that has pairs, in row
  /// order, with buffers that live for the call. Non-numeric columns
  /// contribute no pairs. A non-OK status from `fn` stops the scan and is
  /// returned. Thread-safe like ReadNumericRange.
  using PairBatchFn =
      std::function<Status(const double* xs, const double* ys, size_t n)>;
  Status ScanNumericPairs(const std::string& name_a,
                          const std::string& name_b, uint64_t begin,
                          uint64_t end, const PairBatchFn& fn) const;

  /// Reads one row — the access pattern transposed files are bad at.
  Result<Row> ReadRow(uint64_t row) const;

  /// Reads one cell.
  Result<Value> ReadCell(uint64_t row, const std::string& col) const;

  /// Overwrites one cell (null = mark missing): a one-cell Install.
  Status WriteCell(uint64_t row, const std::string& col, const Value& v);

  /// The one write path for staged changes: writes each column change's
  /// new cells (its old cells when `undo`), pinning each page of the
  /// column once per run of its cells and dropping its sidecar once.
  Status Install(const ChangeSet& set, bool undo = false);

  /// A Value as column `col`'s raw cell (nullopt for null). A new string
  /// joins the column's dictionary.
  Result<std::optional<int64_t>> EncodeCell(size_t col, const Value& v);

  /// A raw cell of column `col` as a Value; an unknown code is null.
  Value DecodeCell(size_t col, std::optional<int64_t> raw) const;

  /// Appends a new attribute whose cells are all null (derived columns
  /// are added during analysis, §2.2).
  Status AddColumn(const Attribute& attr);

  /// Reads the whole table back into memory.
  Result<Table> ReadAll() const;

  // --- RLE sidecars (compressed-domain scans, DESIGN.md §14) ------------

  /// Builds a read-only RLE sidecar for every column whose estimated
  /// compression ratio is at least 2 (runs are counted before any page is
  /// allocated, so poorly-compressing columns cost no storage).
  /// Best-effort: a column that fails to compress — device full, say —
  /// simply keeps no sidecar. Sidecars are a scan
  /// accelerator, not durable state: they are absent from the recovery
  /// manifest and any cell mutation drops the affected ones.
  Status CompressColumns();

  /// The column's RLE sidecar, or nullptr when none was built (or a
  /// mutation invalidated it). The sidecar's runs decode to exactly the
  /// column's raw cells (int64 raws; doubles are bit-cast).
  ///
  /// Existence probe only: the pointer is not safe to hold across a
  /// concurrent mutation (Append/Install drop the sidecar). Scans that
  /// may race a writer must take CompressedSidecarRef instead.
  const CompressedColumnFile* CompressedSidecar(
      const std::string& name) const;

  /// Shared ownership of the column's sidecar (nullptr when none). A
  /// concurrent Append/Install only *detaches* the sidecar — the
  /// returned ref keeps the immutable run pages alive for the whole scan,
  /// so a compressed-domain scan can never read a sidecar being torn
  /// down. The detached sidecar is reclaimed when the last ref drops
  /// (statdb::session additionally defers mutations behind its epoch
  /// grace period, making the swap invisible to pinned snapshots).
  std::shared_ptr<const CompressedColumnFile> CompressedSidecarRef(
      const std::string& name) const;

 private:
  struct ColumnStore {
    std::unique_ptr<ColumnFile> file;
    // Dictionary for string columns: code -> label and label -> code.
    std::vector<std::string> labels;
    std::unordered_map<std::string, int64_t> codes;
    // RLE sidecar over the raw cells; nullptr = none / invalidated.
    // Guarded by sidecar_mu_ (the one mutable field readers and the
    // write path touch concurrently); shared_ptr so an in-flight scan
    // holds the old version alive after invalidation detaches it.
    std::shared_ptr<const CompressedColumnFile> compressed;
  };

  /// Detaches column c's sidecar (invalidation on mutation).
  void DropSidecar(size_t col);

  Schema schema_;
  BufferPool* pool_;
  std::vector<ColumnStore> columns_;
  uint64_t num_rows_ = 0;
  /// Serializes every access to the ColumnStore::compressed pointers.
  /// Held only for pointer swap/copy — never across a scan or build.
  mutable Mutex sidecar_mu_;
};

}  // namespace statdb

#endif  // STATDB_RELATIONAL_STORED_TABLE_H_
