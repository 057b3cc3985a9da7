#include "rules/update_history.h"

namespace statdb {

Status UpdateHistory::Append(UpdateLogEntry entry) {
  if (entry.version <= latest_version()) {
    return InvalidArgumentError("update log versions must increase");
  }
  entries_.push_back(std::move(entry));
  return Status::OK();
}

std::vector<const UpdateLogEntry*> UpdateHistory::EntriesSince(
    uint64_t since) const {
  std::vector<const UpdateLogEntry*> out;
  for (const UpdateLogEntry& e : entries_) {
    if (e.version > since) out.push_back(&e);
  }
  return out;
}

Status UpdateHistory::Rollback(
    uint64_t target_version,
    const std::function<Status(const ChangeSet&)>& undo) {
  // Newest first, so chained updates of the same cell unwind correctly;
  // an entry holds each column once, so its order within is free.
  size_t keep = entries_.size();
  for (; keep > 0 && entries_[keep - 1].version > target_version; --keep) {
    STATDB_RETURN_IF_ERROR(undo(entries_[keep - 1].changes));
  }
  entries_.resize(keep);
  return Status::OK();
}

uint64_t UpdateHistory::TotalCellChanges() const {
  uint64_t total = 0;
  for (const UpdateLogEntry& e : entries_) total += CellCount(e.changes);
  return total;
}

}  // namespace statdb
