#ifndef STATDB_CHECK_CHECK_H_
#define STATDB_CHECK_CHECK_H_

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "relational/value.h"
#include "rules/function_registry.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/column_file.h"
#include "storage/device.h"
#include "storage/compressed_column_file.h"
#include "storage/page.h"
#include "storage/rle.h"
#include "summary/summary_db.h"

namespace statdb {

/// `statdb::check` — deep structural auditors for every storage and cache
/// structure, plus the differential summary-vs-view oracle.
///
/// The Summary Database's whole value proposition rests on cached results
/// staying coherent with the view under incremental maintenance (§4.1–
/// §4.3); these checkers make that coherence machine-checkable. Each
/// checker walks one subsystem and appends structured findings to a
/// CheckReport; the returned Status is OK unless the audit itself could
/// not run (an I/O failure mid-walk), so callers always get the full list
/// of violations rather than the first one.

enum class CheckSeverity : uint8_t {
  kInfo = 0,     // observation, never a failure (e.g. unverifiable entry)
  kWarning = 1,  // legal-but-suspect state (e.g. underfull B+-tree leaf)
  kError = 2,    // invariant violation; the structure is corrupt
};

std::string_view CheckSeverityName(CheckSeverity s);

/// One finding: which subsystem, which named invariant, and the detail.
struct CheckIssue {
  CheckSeverity severity = CheckSeverity::kError;
  std::string subsystem;  // "buffer_pool", "btree", "summary_db", ...
  std::string invariant;  // stable slug, e.g. "leaf-chain", "pin-leak"
  std::string message;    // human-readable specifics

  std::string ToString() const;
};

/// Accumulates findings across any number of checker invocations.
class CheckReport {
 public:
  void Add(CheckSeverity severity, std::string subsystem,
           std::string invariant, std::string message);

  bool ok() const { return errors_ == 0; }
  size_t error_count() const { return errors_; }
  size_t warning_count() const { return warnings_; }
  const std::vector<CheckIssue>& issues() const { return issues_; }

  /// Findings matching an invariant slug (testing convenience).
  std::vector<const CheckIssue*> FindInvariant(
      const std::string& invariant) const;
  bool HasError(const std::string& invariant) const;

  /// One line per finding, plus a PASS/FAIL trailer.
  std::string ToString() const;

  /// OK when error-free; otherwise DATA_LOSS carrying a summary of the
  /// first few errors — the shape Dbms propagates when an audit-after-
  /// update trips.
  Status ToStatus() const;

 private:
  std::vector<CheckIssue> issues_;
  size_t errors_ = 0;
  size_t warnings_ = 0;
};

// --- structural checkers ---------------------------------------------------

struct BufferPoolCheckOptions {
  /// Expect no outstanding pins (true between operations; every public
  /// statdb entry point unpins before returning).
  bool expect_quiescent = true;
};

/// Pin counts, page_table_/lru_/frames_/free-list mutual consistency, and
/// duplicate-PageId detection.
Status CheckBufferPool(const BufferPool& pool, CheckReport* report,
                       const BufferPoolCheckOptions& options = {});

/// Key ordering, separator bounds, uniform leaf depth, sibling-link chain,
/// child reachability vs. allocated pages, size accounting, and
/// fill-factor bounds (warnings — deletion never rebalances by design).
Status CheckBPlusTree(const BPlusTree& tree, CheckReport* report);

/// Slot directory in bounds, no overlapping live cells, exact free-space
/// accounting. Operates on a raw page image (caller owns pinning).
Status CheckSlottedPage(const Page& page, CheckReport* report);

/// Page-count vs. cell-count accounting, per-page count fields, and
/// validity-bitmap tails.
Status CheckColumnFile(const ColumnFile& file, CheckReport* report);

/// Run-length sums equal the logical row count; no zero-length runs;
/// canonical (fully merged) form.
Status CheckRleRuns(const std::vector<RleRun>& runs, uint64_t expected_cells,
                    CheckReport* report);

/// Page directory monotonicity and run/cell accounting of the stored
/// compressed column.
Status CheckCompressedColumnFile(const CompressedColumnFile& file,
                                 CheckReport* report);

/// entry_count_ vs. a full tree walk; every reference record resolves to
/// a live head entry; no orphaned or missing continuation chunks; heads
/// decode and their payloads deserialize.
Status CheckSummaryDb(SummaryDatabase* db, CheckReport* report);

/// Walks every stored page image on the device and re-verifies the CRC of
/// each checksummed page (an error finding marks silent corruption the
/// buffer pool would catch on its next fetch), and flags any page whose
/// header LSN exceeds `max_lsn` — under force-at-commit no page may
/// claim a commit the redo log has not recorded. Pages never written
/// through a checksumming pool are skipped.
Status CheckDeviceChecksums(const SimulatedDevice& device, uint64_t max_lsn,
                            CheckReport* report);

// --- differential oracle ----------------------------------------------------

/// Column access the oracle uses to recompute cached results from the
/// base view. Kept as callbacks so statdb_check stays below statdb_core
/// in the dependency DAG (Dbms wires these to its ConcreteView).
struct ViewOracle {
  uint64_t view_version = 0;
  /// Non-missing numeric cells of one attribute (summary-function input).
  std::function<Result<std::vector<double>>(const std::string&)> read_numeric;
  /// Raw cells of one attribute, nulls included (bivariate input).
  std::function<Result<std::vector<Value>>(const std::string&)> read_column;
  /// Attributes with pending (unflushed) update deltas. Their entries
  /// are skipped like stale-flagged ones: exact queries flush them
  /// before serving, so their lag is declared, not silent.
  std::set<std::string> pending_attributes;
};

struct AuditOptions {
  /// |cached - recomputed| <= abs + rel * |recomputed| counts as equal.
  double abs_tolerance = 1e-9;
  double rel_tolerance = 1e-9;
  /// Also verify stale-flagged entries (normally skipped: staleness is
  /// the system *declaring* drift, so drift there is not a bug).
  bool include_stale = false;
};

/// The headline check: recomputes every fresh cached `(function,
/// attributes)` result from the base view and compares it (within FP
/// tolerance) to the cached value — catching incremental-maintenance
/// drift in the §4.2 rules that no structural walk can see. Entries whose
/// function the oracle cannot recompute are reported at kInfo severity.
Status AuditSummaryAgainstView(SummaryDatabase* summary,
                               const FunctionRegistry& functions,
                               const ViewOracle& oracle, CheckReport* report,
                               const AuditOptions& options = {});

/// FP-tolerant comparison used by the oracle (exposed for tests): true
/// when `a` and `b` have the same kind and shape and all numeric fields
/// agree within tolerance (NaN compares equal to NaN).
bool SummaryResultsApproxEqual(const SummaryResult& a, const SummaryResult& b,
                               double abs_tolerance, double rel_tolerance);

}  // namespace statdb

#endif  // STATDB_CHECK_CHECK_H_
