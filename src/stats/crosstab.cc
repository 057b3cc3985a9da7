#include "stats/crosstab.h"

#include <algorithm>
#include <numeric>
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

/// The table of `grid` (row-major, one row per row code and one column
/// per column code, codes ascending), keeping only the rows and columns
/// that counted at least one pair.
CrossTab Compact(const std::vector<uint64_t>& grid,
                 const std::vector<int64_t>& row_codes,
                 const std::vector<int64_t>& col_codes) {
  const size_t cols = col_codes.size();
  std::vector<uint64_t> row_total(row_codes.size(), 0);
  std::vector<uint64_t> col_total(cols, 0);
  for (size_t i = 0; i < row_codes.size(); ++i) {
    for (size_t j = 0; j < cols; ++j) {
      row_total[i] += grid[i * cols + j];
      col_total[j] += grid[i * cols + j];
    }
  }
  CrossTab ct;
  std::vector<size_t> kept_cols;
  for (size_t j = 0; j < cols; ++j) {
    if (col_total[j] == 0) continue;
    kept_cols.push_back(j);
    ct.col_labels.push_back(Value::Int(col_codes[j]));
  }
  for (size_t i = 0; i < row_codes.size(); ++i) {
    if (row_total[i] == 0) continue;
    ct.row_labels.push_back(Value::Int(row_codes[i]));
    std::vector<uint64_t>& row = ct.counts.emplace_back();
    for (size_t j : kept_cols) row.push_back(grid[i * cols + j]);
  }
  return ct;
}

/// The distinct codes of `codes`, ascending.
std::vector<int64_t> DistinctCodes(const std::vector<double>& codes) {
  std::vector<int64_t> out;
  out.reserve(codes.size());
  for (double x : codes) out.push_back(static_cast<int64_t>(x));
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

size_t PositionOf(const std::vector<int64_t>& sorted, double x) {
  return size_t(std::lower_bound(sorted.begin(), sorted.end(),
                                 static_cast<int64_t>(x)) -
                sorted.begin());
}

}  // namespace

Result<CrossTab> CountCodePairs(const std::vector<double>& a,
                                const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return InvalidArgumentError("cross-tab inputs differ in length");
  }
  // Small non-negative codes, the usual category coding, count straight
  // into a grid indexed by the codes themselves, in one pass.
  constexpr size_t kSmall = 64;
  std::vector<uint64_t> grid(kSmall * kSmall, 0);
  size_t i = 0;
  for (; i < a.size(); ++i) {
    const double x = a[i];
    const double y = b[i];
    if (!(x >= 0 && x < double(kSmall) && y >= 0 && y < double(kSmall))) {
      break;
    }
    ++grid[static_cast<size_t>(x) * kSmall + static_cast<size_t>(y)];
  }
  if (i == a.size()) {
    std::vector<int64_t> codes(kSmall);
    std::iota(codes.begin(), codes.end(), int64_t{0});
    return Compact(grid, codes, codes);
  }
  // Any other codes: rank each side among its sorted distinct codes.
  for (size_t k = 0; k < a.size(); ++k) {
    if (!IsExactCode(a[k]) || !IsExactCode(b[k])) {
      return InvalidArgumentError(
          "category code outside double's exact integer range");
    }
  }
  const std::vector<int64_t> rows = DistinctCodes(a);
  const std::vector<int64_t> cols = DistinctCodes(b);
  grid.assign(rows.size() * cols.size(), 0);
  for (size_t k = 0; k < a.size(); ++k) {
    ++grid[PositionOf(rows, a[k]) * cols.size() + PositionOf(cols, b[k])];
  }
  return Compact(grid, rows, cols);
}

Result<CrossTab> BuildCrossTab(const Table& t, const std::string& attr_a,
                               const std::string& attr_b) {
  STATDB_ASSIGN_OR_RETURN(size_t ia, t.schema().IndexOf(attr_a));
  STATDB_ASSIGN_OR_RETURN(size_t ib, t.schema().IndexOf(attr_b));
  std::vector<double> a, b;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    const Value& va = t.At(r, ia);
    const Value& vb = t.At(r, ib);
    if (va.is_null() || vb.is_null()) continue;
    if (va.type() != DataType::kInt64 || vb.type() != DataType::kInt64) {
      return InvalidArgumentError("cross-tab needs integer-coded attributes");
    }
    a.push_back(double(va.AsInt()));
    b.push_back(double(vb.AsInt()));
  }
  return CountCodePairs(a, b);
}

}  // namespace statdb
