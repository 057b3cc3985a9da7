#ifndef STATDB_TESTS_CELL_CHANGES_H_
#define STATDB_TESTS_CELL_CHANGES_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/view.h"

namespace statdb {

/// One changed cell of a staged change set, decoded to Values so tests
/// can assert on it in the terms of the update that made it.
struct CellChange {
  uint64_t row = 0;
  std::string column;
  Value old_value;
  Value new_value;
};

/// `set`'s cells, column change by column change, decoded by `view`.
inline std::vector<CellChange> DecodeChanges(const ConcreteView& view,
                                             const ChangeSet& set) {
  std::vector<CellChange> out;
  for (const ColumnChange& change : set) {
    for (const RawChange& c : change.cells) {
      out.push_back(CellChange{c.row(), view.schema().attr(change.column).name,
                               view.DecodeCell(change.column, c.old_cell()),
                               view.DecodeCell(change.column, c.new_cell())});
    }
  }
  return out;
}

/// A predicate update of one column with no derived upkeep: stages it,
/// installs it, bumps the version iff a cell changed, and returns the
/// changed cells decoded.
inline Result<std::vector<CellChange>> ApplyUpdate(ConcreteView& view,
                                                   const UpdateSpec& spec) {
  ChangeSet staged;
  STATDB_RETURN_IF_ERROR(view.Stage(spec.column, spec.predicate.get(),
                                    spec.value.get(), /*rows=*/nullptr,
                                    &staged));
  STATDB_RETURN_IF_ERROR(view.Install(staged));
  if (!staged.empty()) view.BumpVersion();
  return DecodeChanges(view, staged);
}

}  // namespace statdb

#endif  // STATDB_TESTS_CELL_CHANGES_H_
