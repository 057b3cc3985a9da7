#include "stats/crosstab.h"

#include <algorithm>
#include <sstream>

namespace statdb {

uint64_t CrossTab::Total() const {
  uint64_t total = 0;
  for (const auto& row : counts) {
    for (uint64_t c : row) total += c;
  }
  return total;
}

std::vector<uint64_t> CrossTab::RowTotals() const {
  std::vector<uint64_t> out(counts.size(), 0);
  for (size_t i = 0; i < counts.size(); ++i) {
    for (uint64_t c : counts[i]) out[i] += c;
  }
  return out;
}

std::vector<uint64_t> CrossTab::ColTotals() const {
  std::vector<uint64_t> out(col_labels.size(), 0);
  for (const auto& row : counts) {
    for (size_t j = 0; j < row.size(); ++j) out[j] += row[j];
  }
  return out;
}

std::string CrossTab::ToString() const {
  std::ostringstream os;
  os << "        ";
  for (const Value& c : col_labels) os << c.ToString() << "\t";
  os << "\n";
  for (size_t i = 0; i < row_labels.size(); ++i) {
    os << row_labels[i].ToString() << "\t";
    for (uint64_t c : counts[i]) os << c << "\t";
    os << "\n";
  }
  return os.str();
}

namespace {

/// `codes` sorted, duplicates dropped.
void SortUnique(std::vector<int64_t>* codes) {
  std::sort(codes->begin(), codes->end());
  codes->erase(std::unique(codes->begin(), codes->end()), codes->end());
}

size_t PositionOf(const std::vector<int64_t>& sorted, int64_t code) {
  return size_t(std::lower_bound(sorted.begin(), sorted.end(), code) -
                sorted.begin());
}

}  // namespace

namespace {

/// Counts the leading pairs of (a, b) that fall in a `side` x `side`
/// grid and returns how many there were: it stops at the first pair
/// outside. Sorted or clustered codes fall on one cell many pairs in a
/// row: such a run counts in a register and lands in the grid once,
/// instead of as a chain of increments of one memory word.
size_t CountGridPairs(const double* a, const double* b, size_t n,
                      size_t side, uint64_t* grid) {
  const double limit = double(side);
  size_t cell = 0;
  uint64_t run = 0;
  size_t i = 0;
  for (; i < n; ++i) {
    const double x = a[i];
    const double y = b[i];
    if (!(x >= 0 && x < limit && y >= 0 && y < limit)) break;
    const size_t c = static_cast<size_t>(static_cast<int64_t>(x)) * side +
                     static_cast<size_t>(static_cast<int64_t>(y));
    if (c != cell) {
      grid[cell] += run;
      cell = c;
      run = 0;
    }
    ++run;
  }
  grid[cell] += run;
  return i;
}

}  // namespace

void CodePairCounts::Add(const double* a, const double* b, size_t n) {
  pairs_ += n;
  if (inexact_ || n == 0) return;
  if (grid_.empty()) grid_.assign(kSmall * kSmall, 0);
  for (size_t i = 0;; ++i) {
    i += CountGridPairs(a + i, b + i, n - i, kSmall, grid_.data());
    if (i == n || !AddOutsideGrid(a[i], b[i])) return;
  }
}

bool CodePairCounts::AddOutsideGrid(double x, double y) {
  if (!IsExactCode(x) || !IsExactCode(y)) {
    inexact_ = true;
    return false;
  }
  ++overflow_[{static_cast<int64_t>(x), static_cast<int64_t>(y)}];
  return true;
}

void CodePairCounts::Merge(const CodePairCounts& o) {
  pairs_ += o.pairs_;
  inexact_ = inexact_ || o.inexact_;
  if (grid_.empty()) {
    grid_ = o.grid_;
  } else {
    for (size_t k = 0; k < o.grid_.size(); ++k) grid_[k] += o.grid_[k];
  }
  for (const auto& [codes, count] : o.overflow_) overflow_[codes] += count;
}

Result<CrossTab> CodePairCounts::Finish() const {
  if (inexact_) {
    return InvalidArgumentError(
        "category code outside double's exact integer range");
  }
  std::vector<int64_t> rows, cols;
  for (size_t k = 0; k < grid_.size(); ++k) {
    if (grid_[k] == 0) continue;
    rows.push_back(int64_t(k / kSmall));
    cols.push_back(int64_t(k % kSmall));
  }
  for (const auto& [codes, count] : overflow_) {
    rows.push_back(codes.first);
    cols.push_back(codes.second);
  }
  SortUnique(&rows);
  SortUnique(&cols);
  // Every listed code counted at least one pair, so no row or column of
  // the table is empty.
  CrossTab ct;
  for (int64_t code : rows) ct.row_labels.push_back(Value::Int(code));
  for (int64_t code : cols) ct.col_labels.push_back(Value::Int(code));
  ct.counts.assign(rows.size(), std::vector<uint64_t>(cols.size(), 0));
  for (size_t k = 0; k < grid_.size(); ++k) {
    if (grid_[k] == 0) continue;
    ct.counts[PositionOf(rows, int64_t(k / kSmall))]
             [PositionOf(cols, int64_t(k % kSmall))] += grid_[k];
  }
  for (const auto& [codes, count] : overflow_) {
    ct.counts[PositionOf(rows, codes.first)][PositionOf(cols, codes.second)] +=
        count;
  }
  return ct;
}

Result<CrossTab> CountCodePairs(const std::vector<double>& a,
                                const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return InvalidArgumentError("cross-tab inputs differ in length");
  }
  CodePairCounts counts;
  counts.Add(a.data(), b.data(), a.size());
  return counts.Finish();
}

Result<CrossTab> BuildCrossTab(const Table& t, const std::string& attr_a,
                               const std::string& attr_b) {
  STATDB_ASSIGN_OR_RETURN(size_t ia, t.schema().IndexOf(attr_a));
  STATDB_ASSIGN_OR_RETURN(size_t ib, t.schema().IndexOf(attr_b));
  CodePairCounts counts;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    const Value& va = t.At(r, ia);
    const Value& vb = t.At(r, ib);
    if (va.is_null() || vb.is_null()) continue;
    if (va.type() != DataType::kInt64 || vb.type() != DataType::kInt64) {
      return InvalidArgumentError("cross-tab needs integer-coded attributes");
    }
    const double a = double(va.AsInt());
    const double b = double(vb.AsInt());
    counts.Add(&a, &b, 1);
  }
  return counts.Finish();
}

}  // namespace statdb
