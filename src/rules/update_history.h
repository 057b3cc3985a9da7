#ifndef STATDB_RULES_UPDATE_HISTORY_H_
#define STATDB_RULES_UPDATE_HISTORY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "relational/change_set.h"

namespace statdb {

/// One logical update operation applied to a view, e.g. the outcome of a
/// predicate update: the staged change set it installed, which is also
/// everything needed to undo it.
struct UpdateLogEntry {
  uint64_t version = 0;  // view version *after* this update
  std::string description;
  ChangeSet changes;
};

/// Per-view update history (§3.2): "Keeping a history of updates for each
/// view will enable the DBMS to roll a view back to a previous state
/// should such an action be desired by the analyst. The update history
/// of a view may also be used by other analysts ... rather than
/// repeating the mundane and time consuming data checking operations
/// they can examine what actions were taken by their predecessors."
class UpdateHistory {
 public:
  UpdateHistory() = default;

  /// Records one committed update. `entry.version` must be strictly
  /// increasing.
  Status Append(UpdateLogEntry entry);

  const std::vector<UpdateLogEntry>& entries() const { return entries_; }
  uint64_t latest_version() const {
    return entries_.empty() ? 0 : entries_.back().version;
  }

  /// Entries with version > `since`, oldest first — the "what did my
  /// predecessors clean" query.
  std::vector<const UpdateLogEntry*> EntriesSince(uint64_t since) const;

  /// Undoes every update with version > `target_version`, newest first,
  /// by handing each entry's change set to `undo` (which installs its
  /// old cells). On success the log is truncated to the target version.
  Status Rollback(uint64_t target_version,
                  const std::function<Status(const ChangeSet&)>& undo);

  /// Total cell-level changes recorded (log size proxy).
  uint64_t TotalCellChanges() const;

 private:
  std::vector<UpdateLogEntry> entries_;
};

}  // namespace statdb

#endif  // STATDB_RULES_UPDATE_HISTORY_H_
