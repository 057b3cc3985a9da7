#ifndef STATDB_RELATIONAL_CHANGE_SET_H_
#define STATDB_RELATIONAL_CHANGE_SET_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace statdb {

/// One changed cell in its stored form: the raw 8-byte cells a ColumnFile
/// holds (an int64, a double's bit pattern or a string's dictionary
/// code) before and after the change, nullopt for a missing value. The
/// two presence bits ride below the row number (rows < 2^62), so a cell
/// costs 24 bytes: a whole-column edit stages 2.4 MB per 100k rows.
class RawChange {
 public:
  RawChange() = default;
  RawChange(uint64_t row, std::optional<int64_t> old_cell,
            std::optional<int64_t> new_cell)
      : key_(row << 2 | (old_cell.has_value() ? 1u : 0u) |
             (new_cell.has_value() ? 2u : 0u)),
        old_(old_cell.value_or(0)),
        new_(new_cell.value_or(0)) {}

  uint64_t row() const { return key_ >> 2; }
  std::optional<int64_t> old_cell() const {
    return (key_ & 1) != 0 ? std::optional(old_) : std::nullopt;
  }
  std::optional<int64_t> new_cell() const {
    return (key_ & 2) != 0 ? std::optional(new_) : std::nullopt;
  }

 private:
  uint64_t key_ = 0;  // row << 2 | new present << 1 | old present
  int64_t old_ = 0;
  int64_t new_ = 0;
};

/// What one mutation changed in one column: the column's schema position
/// and its changed cells, strictly ascending by row.
struct ColumnChange {
  size_t column = 0;
  std::vector<RawChange> cells;
};

/// A staged mutation: at most one ColumnChange per column, none empty.
/// Evaluation fills it and writes nothing; TransposedTable::Install then
/// writes it a page at a time, and the view's update history keeps it as
/// the record that rollback installs in reverse (DESIGN.md §9.3).
using ChangeSet = std::vector<ColumnChange>;

inline uint64_t CellCount(const ChangeSet& set) {
  uint64_t n = 0;
  for (const ColumnChange& c : set) n += c.cells.size();
  return n;
}

}  // namespace statdb

#endif  // STATDB_RELATIONAL_CHANGE_SET_H_
