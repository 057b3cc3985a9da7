#ifndef STATDB_STATS_CROSSTAB_H_
#define STATDB_STATS_CROSSTAB_H_

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "relational/table.h"

namespace statdb {

/// Contingency table of two category attributes — the input to the
/// confirmatory-phase chi-squared independence test ("is the proportion
/// of people who live past 40 dependent on race?", §2.2).
struct CrossTab {
  std::vector<Value> row_labels;
  std::vector<Value> col_labels;
  /// counts[i][j] = #rows with (row_labels[i], col_labels[j]).
  std::vector<std::vector<uint64_t>> counts;

  uint64_t Total() const;
  std::vector<uint64_t> RowTotals() const;
  std::vector<uint64_t> ColTotals() const;
  std::string ToString() const;
};

/// True when an integer code read back as a double is exact: |x| < 2^53.
/// Past that, neighbouring integers share a double, and a code could be
/// counted under its neighbour's label.
inline bool IsExactCode(double x) {
  return std::abs(x) < 9007199254740992.0;
}

/// The count state of a cross-tab: how many code pairs fell on each
/// (row code, column code) — the one counting body behind CountCodePairs,
/// BuildCrossTab and the DBMS pair route (DESIGN.md §9.1). Codes arrive
/// as the doubles the pair route reads and count under their truncation.
/// Small non-negative codes, the usual category coding, count in a
/// 64 × 64 grid indexed by the codes; any other code counts exactly in an
/// ordered overflow map. A code that is not IsExactCode fails the state.
/// A scan folds it chunk by chunk and merges chunk partials, so no
/// column is gathered.
class CodePairCounts {
 public:
  /// Counts the pairs (a[i], b[i]), i < n.
  void Add(const double* a, const double* b, size_t n);
  void Merge(const CodePairCounts& o);
  /// The table, labels ascending, rows and columns that counted nothing
  /// left out; INVALID_ARGUMENT when a code was not IsExactCode.
  Result<CrossTab> Finish() const;
  /// Pairs added, counted or not.
  uint64_t pairs() const { return pairs_; }

 private:
  /// Counts a pair outside the grid in the overflow map; false, marking
  /// the state failed, when a code is not IsExactCode.
  bool AddOutsideGrid(double x, double y);

  static constexpr size_t kSmall = 64;
  std::vector<uint64_t> grid_;  // kSmall * kSmall, row-major, once used
  std::map<std::pair<int64_t, int64_t>, uint64_t> overflow_;
  uint64_t pairs_ = 0;
  bool inexact_ = false;
};

/// Contingency table of the integer code pairs (a[i], b[i]): the finish
/// of their CodePairCounts. Inputs of different lengths fail.
Result<CrossTab> CountCodePairs(const std::vector<double>& a,
                                const std::vector<double>& b);

/// Builds the contingency table of t[attr_a] x t[attr_b]. Rows where
/// either cell is null are skipped; every other cell must be an integer
/// code. Labels are sorted.
Result<CrossTab> BuildCrossTab(const Table& t, const std::string& attr_a,
                               const std::string& attr_b);

}  // namespace statdb

#endif  // STATDB_STATS_CROSSTAB_H_
