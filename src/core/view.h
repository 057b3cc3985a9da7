#ifndef STATDB_CORE_VIEW_H_
#define STATDB_CORE_VIEW_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "relational/change_set.h"
#include "relational/expr.h"
#include "relational/stored_table.h"

namespace statdb {

/// Rows-to-touch + new-value specification of a predicate update (§4.1:
/// "the analyst will specify an update to the data set by using a
/// predicate in a similar manner to what is currently done in relational
/// systems").
struct UpdateSpec {
  /// Which rows (nullptr = every row).
  ExprPtr predicate;
  /// The attribute being updated.
  std::string column;
  /// New value as an expression over the row; nullptr marks the cell
  /// missing (invalidating a suspicious measurement, §3.1).
  ExprPtr value;
  std::string description;
};

/// A concrete (materialized) view: the analyst's private working copy,
/// stored transposed on the "disk" device (§2.3, §2.6). Wraps the
/// storage with versioning and the one write path: a mutation is staged
/// into a ChangeSet (which the update history logs and Summary-Database
/// maintenance consumes), then installed a page at a time.
class ConcreteView {
 public:
  ConcreteView(std::string name, Schema schema, BufferPool* pool)
      : name_(std::move(name)),
        table_(std::make_unique<TransposedTable>(std::move(schema), pool)),
        generations_(table_->schema().size()) {}

  /// Re-attaches to an existing on-device view (crash recovery).
  ConcreteView(std::string name, Schema schema, BufferPool* pool,
               std::vector<TransposedTable::ColumnState> columns,
               uint64_t num_rows, uint64_t version)
      : name_(std::move(name)),
        table_(std::make_unique<TransposedTable>(
            std::move(schema), pool, std::move(columns), num_rows)),
        version_(version),
        generations_(table_->schema().size()) {}

  /// Durable column shapes, for the recovery manifest.
  std::vector<TransposedTable::ColumnState> ExportColumns() const {
    return table_->ExportColumns();
  }

  const std::string& name() const { return name_; }
  const Schema& schema() const { return table_->schema(); }
  uint64_t num_rows() const { return table_->num_rows(); }
  uint64_t version() const { return version_; }

  /// Bulk-load at materialization time (does not bump the version).
  Status LoadFrom(const Table& t);

  /// Stages `column` := `value` (nullptr = missing) where `predicate`
  /// (nullptr = true) holds, over `rows` (ascending; nullptr = every row),
  /// evaluating a page at a time and reading only the pages that hold
  /// them. Cells read as if `*staged` were installed, and the changed
  /// ones join it; a column already in it fails with FAILED_PRECONDITION.
  /// Writes nothing, and a failure leaves `*staged` as it was. Adds the
  /// pages the scan read to `*pages`.
  Status Stage(const std::string& column, const Expr* predicate,
               const Expr* value, const std::vector<uint64_t>* rows,
               ChangeSet* staged, uint64_t* pages = nullptr);

  /// Installs every column change of `set`, or its inverse when `undo`,
  /// a page at a time. Does NOT bump the version.
  Status Install(const ChangeSet& set, bool undo = false);

  /// Point write (tests and tools). Does NOT bump the version.
  Status WriteCell(uint64_t row, const std::string& column, const Value& v);

  /// The write generation of the column at schema position `column`: a
  /// number no other write, column or view ever gets, replaced by every
  /// LoadFrom, Install, WriteCell and AddColumn that may change the
  /// column's cells. Unlike the version, which Rollback reuses, two equal
  /// generations mean the same cells. State derived from a column (its
  /// order state) is current while it records the column's generation.
  uint64_t generation(size_t column) const {
    return generations_[column].current;
  }
  /// The generation the column had before its latest write: state that
  /// recorded it and folds that write in is current again.
  uint64_t previous_generation(size_t column) const {
    return generations_[column].previous;
  }

  /// A raw cell of the column at schema position `column` as a Value.
  Value DecodeCell(size_t column, std::optional<int64_t> raw) const {
    return table_->DecodeCell(column, raw);
  }

  Result<Value> ReadCell(uint64_t row, const std::string& column) const {
    return table_->ReadCell(row, column);
  }

  /// Column reads (each touches only that column's pages).
  Result<std::vector<Value>> ReadColumn(const std::string& name) const {
    return table_->ReadColumn(name);
  }
  Result<std::vector<double>> ReadNumericColumn(const std::string& name) const {
    return table_->ReadNumericColumn(name);
  }

  /// Chunked-scan shard reads (thread-safe for concurrent readers; see
  /// TransposedTable). The parallel execution layer binds these as its
  /// range readers.
  Result<std::vector<double>> ReadNumericRange(const std::string& name,
                                               uint64_t begin,
                                               uint64_t end) const {
    return table_->ReadNumericRange(name, begin, end);
  }
  Status ScanNumericPairs(const std::string& a, const std::string& b,
                          uint64_t begin, uint64_t end,
                          const TransposedTable::PairBatchFn& fn) const {
    return table_->ScanNumericPairs(a, b, begin, end, fn);
  }

  /// RLE sidecars for compressed-domain scans (DESIGN.md §14). Built
  /// after bulk load; invalidated automatically by installs.
  Status CompressColumns() { return table_->CompressColumns(); }
  const CompressedColumnFile* CompressedSidecar(
      const std::string& name) const {
    return table_->CompressedSidecar(name);
  }
  /// Shared ownership for scans that may race an invalidating writer —
  /// see TransposedTable::CompressedSidecarRef.
  std::shared_ptr<const CompressedColumnFile> CompressedSidecarRef(
      const std::string& name) const {
    return table_->CompressedSidecarRef(name);
  }

  /// Appends an all-null column (derived columns, §2.2).
  Status AddColumn(const Attribute& attr);

  /// In-memory snapshot (reads every column).
  Result<Table> Snapshot() const { return table_->ReadAll(); }

  void SetVersion(uint64_t v) { version_ = v; }
  void BumpVersion() { ++version_; }

 private:
  struct Generation {
    Generation();
    /// Gives the column a fresh generation.
    void Bump();
    uint64_t previous = 0;
    uint64_t current = 0;
  };

  std::string name_;
  std::unique_ptr<TransposedTable> table_;
  uint64_t version_ = 0;
  std::vector<Generation> generations_;  // by schema position
};

}  // namespace statdb

#endif  // STATDB_CORE_VIEW_H_
