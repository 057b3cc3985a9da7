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
#include "delta/comoment.h"
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
  /// Univariate maintainers keyed by encoded SummaryKey (the ViewState
  /// map). The flush erases entries it can no longer keep honest.
  std::map<std::string, std::unique_ptr<IncrementalMaintainer>>*
      maintainers = nullptr;
  /// Bivariate comoment maintainers, same keying.
  std::map<std::string, std::unique_ptr<ComomentMaintainer>>* comaintainers =
      nullptr;
  uint64_t view_version = 0;
  /// Loads the flushed attribute's full numeric column (rebuild path).
  std::function<Result<std::vector<double>>()> load_column;
  /// Reads one live cell of another attribute (bivariate co-values).
  /// nullopt = the cell is null.
  std::function<Result<std::optional<double>>(uint64_t row,
                                              const std::string& attr)>
      read_cell;
  /// True when `attr` still has pending deltas of its own — the
  /// bivariate soundness gate (see ComomentMaintainer's contract).
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
/// single amortized pass: mergeable univariate entries go through their
/// maintainer's ApplyBatch arm (rebuilding from the column when the
/// auxiliary state refuses), bivariate comoment entries fold the batch
/// with live co-values, and everything else — order statistics past the
/// window contract, entries with no armed rule, crosstabs — is marked
/// stale for lazy recomputation. Stale entries are never resurrected:
/// the flush skips them and drops their maintainers, so an invalidation
/// issued between buffer and flush sticks.
Status FlushAttribute(const std::string& attribute,
                      const std::vector<RowDelta>& batch, const FlushEnv& env,
                      FlushCounters* counters);

/// Arms (or replaces) the incremental maintainer for `key` — the
/// cache-tail arm shared by every compute path. A moment rule is seeded
/// from the scan's `state`; any other rule initializes from the column's
/// `values`. Returns true when a rule exists and armed cleanly; false
/// (not an error) when the function has no incremental rule, its
/// parameters are invalid, or the arming refused.
bool ArmMaintainer(
    const ManagementDatabase& mdb, const SummaryKey& key,
    const DescriptiveStats& state, const std::vector<double>& values,
    std::map<std::string, std::unique_ptr<IncrementalMaintainer>>*
        maintainers);

/// True when arming `function`'s rule needs the column's values: a rule
/// exists and cannot be seeded from a moment state. The planner keeps a
/// scan's values only then.
bool ArmsFromValues(const ManagementDatabase& mdb,
                    const std::string& function,
                    const FunctionParams& params);

/// Arms (or replaces) the comoment maintainer for a bivariate `key`,
/// seeded with the just-computed partial state. Returns false when the
/// function is not comoment-maintainable.
bool ArmComomentMaintainer(
    const SummaryKey& key, const ComomentStats& seed,
    std::map<std::string, std::unique_ptr<ComomentMaintainer>>*
        comaintainers);

}  // namespace statdb::delta

#endif  // STATDB_DELTA_MAINTENANCE_H_
