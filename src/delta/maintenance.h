#ifndef STATDB_DELTA_MAINTENANCE_H_
#define STATDB_DELTA_MAINTENANCE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "causal/trace_context.h"
#include "common/result.h"
#include "common/status.h"
#include "delta/delta_buffer.h"
#include "flight/flight_recorder.h"
#include "rules/incremental.h"
#include "rules/management_db.h"
#include "summary/summary_db.h"
#include "summary/summary_key.h"

namespace statdb::delta {

/// Everything the flush engine needs from the owning DBMS, handed in by
/// reference so src/delta stays below src/core in the dependency DAG.
struct FlushEnv {
  std::string view_name;
  SummaryDatabase* summary = nullptr;
  /// The view's maintainers, one- and two-attribute rules alike, keyed
  /// by encoded SummaryKey (the ViewState map). The flush erases entries
  /// it can no longer keep honest.
  std::map<std::string, std::unique_ptr<IncrementalMaintainer>>*
      maintainers = nullptr;
  uint64_t view_version = 0;
  /// Loads the flushed attribute's full numeric column (rebuild path).
  std::function<Result<std::vector<double>>()> load_column;
  /// Reads one live cell of another attribute (pair rules' co-values).
  /// nullopt = the cell is null.
  std::function<Result<std::optional<double>>(uint64_t row,
                                              const std::string& attr)>
      read_cell;
  /// True when `attr` still has pending deltas of its own — the pair
  /// rules' soundness gate (see FlushAttribute).
  std::function<bool(const std::string& attr)> has_pending;
  FlightRecorder* flight = nullptr;  // nullable
  /// Causal context of the operation that triggered this flush (the
  /// querying/updating caller, not the buffered writers) — stamped on
  /// every kMaintainerFire / kDeltaFlush event so a flush joins its
  /// trigger's trace (DESIGN.md §10).
  causal::TraceContext ctx;
};

/// Effort accounting of one FlushAttribute pass, folded into the view's
/// traffic counters by the caller.
struct FlushCounters {
  uint64_t applied = 0;      // deltas absorbed incrementally (per entry)
  uint64_t rebuilds = 0;     // full-column reinitializations
  uint64_t refreshed = 0;    // summary entries rewritten in place
  uint64_t invalidated = 0;  // entries marked stale instead
};

/// Applies one drained batch to every summary entry on `attribute` in a
/// single amortized pass. An entry with an armed rule folds the batch
/// through the rule's ApplyBatch arm, rebuilding a one-attribute rule
/// from the column when its auxiliary state refuses. A pair rule folds
/// each change with the row's co-value, read live: that stands for the
/// co-attribute at both endpoints only while the co-attribute has no
/// pending deltas of its own (data writes are immediate; only summary
/// maintenance defers), so otherwise the entry is marked stale instead.
/// Everything else — entries with no armed rule, order statistics past
/// the window contract, cross-tabs — is marked stale for lazy
/// recomputation. Stale entries are never resurrected: the flush skips
/// them and drops their rules, so an invalidation issued between buffer
/// and flush sticks.
Status FlushAttribute(const std::string& attribute,
                      const std::vector<RowDelta>& batch, const FlushEnv& env,
                      FlushCounters* counters);

/// Arms (or replaces) the incremental rule for `key` — the cache-tail arm
/// shared by every compute path — from the scan's family state: a rule
/// that can is seeded from it (the moments, the co-moments), any other
/// initializes from its gathered `values`. Returns true when a rule
/// exists and armed cleanly; false (not an error) when the function has
/// no incremental rule, its parameters are invalid, or the arming
/// refused.
bool ArmMaintainer(
    const ManagementDatabase& mdb, const SummaryKey& key,
    const FamilyState& state,
    std::map<std::string, std::unique_ptr<IncrementalMaintainer>>*
        maintainers);

}  // namespace statdb::delta

#endif  // STATDB_DELTA_MAINTENANCE_H_
