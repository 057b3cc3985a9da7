#ifndef STATDB_STATS_CROSSTAB_H_
#define STATDB_STATS_CROSSTAB_H_

#include <cmath>
#include <string>
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

/// Contingency table of the integer code pairs (a[i], b[i]) with labels
/// in ascending order — the one counting body behind BuildCrossTab and
/// the DBMS pair route (DESIGN.md §9.1). Codes arrive as the doubles the
/// pair route reads; a code that is not IsExactCode fails.
Result<CrossTab> CountCodePairs(const std::vector<double>& a,
                                const std::vector<double>& b);

/// Builds the contingency table of t[attr_a] x t[attr_b]. Rows where
/// either cell is null are skipped; every other cell must be an integer
/// code. Labels are sorted.
Result<CrossTab> BuildCrossTab(const Table& t, const std::string& attr_a,
                               const std::string& attr_b);

}  // namespace statdb

#endif  // STATDB_STATS_CROSSTAB_H_
