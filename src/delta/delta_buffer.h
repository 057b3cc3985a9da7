#ifndef STATDB_DELTA_DELTA_BUFFER_H_
#define STATDB_DELTA_DELTA_BUFFER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "relational/change_set.h"
#include "relational/value.h"

namespace statdb::delta {

/// One pending cell mutation on a maintained attribute, in numeric form.
/// Like rules' CellDelta it covers change / invalidate-to-missing / fill,
/// but keeps the row id so (a) repeated writes to one row coalesce and
/// (b) bivariate maintainers can read the co-attribute's cell at flush.
struct RowDelta {
  uint64_t row = 0;
  std::optional<double> old_value;
  std::optional<double> new_value;

  /// A coalesced round trip (x -> y -> x) or null -> null: nothing for
  /// any maintainer to do.
  bool IsNoOp() const {
    return old_value == new_value;
  }
};

/// Per-attribute pending-delta queues for one view — the write side of
/// the F-IVM-style batching contract (DESIGN.md §16). Mutation paths
/// Buffer() their staged column changes instead of firing maintainers;
/// the flush engine Drain()s a queue and applies it in one amortized
/// pass.
///
/// Unlocked by design: mutations are single-threaded under the Dbms
/// writer discipline (the same contract the maintainer map relies on),
/// and the query-path flush gate runs on the mutating thread as well.
class DeltaBuffer {
 public:
  /// Folds `change`, a staged change of the `type` column `attribute`,
  /// into that attribute's queue. A non-numeric column fails with
  /// INVALID_ARGUMENT and buffers *nothing* (the caller falls back to
  /// invalidation, exactly like the pre-delta maintenance path).
  ///
  /// With `coalesce`, a second write to a row already pending collapses
  /// into it: first old value, latest new value. Without it every change
  /// appends, preserving the exact delta sequence.
  ///
  /// Returns the number of raw changes absorbed (== change.cells.size()).
  Result<size_t> Buffer(const std::string& attribute, DataType type,
                        const ColumnChange& change, bool coalesce);

  bool HasPending(const std::string& attribute) const {
    auto it = queues_.find(attribute);
    return it != queues_.end() && !it->second.items.empty();
  }
  size_t PendingCount(const std::string& attribute) const {
    auto it = queues_.find(attribute);
    return it == queues_.end() ? 0 : it->second.items.size();
  }
  size_t TotalPending() const;

  /// Attributes with at least one pending delta, in name order.
  std::vector<std::string> PendingAttributes() const;

  /// Removes and returns `attribute`'s queue in first-touch order.
  std::vector<RowDelta> Drain(const std::string& attribute);

  /// Drops `attribute`'s queue without applying it (switch-to-lazy,
  /// rollback, non-numeric fallback).
  void Discard(const std::string& attribute) { queues_.erase(attribute); }

  void Clear() { queues_.clear(); }

 private:
  struct AttrQueue {
    std::vector<RowDelta> items;  // first-touch order
    /// (row id, index into items), ascending by row; only populated
    /// while coalescing, and merged with each ascending change.
    std::vector<std::pair<uint64_t, size_t>> by_row;
  };

  std::map<std::string, AttrQueue> queues_;
};

}  // namespace statdb::delta

#endif  // STATDB_DELTA_DELTA_BUFFER_H_
