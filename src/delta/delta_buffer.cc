#include "delta/delta_buffer.h"

#include <algorithm>
#include <bit>

namespace statdb::delta {

Result<size_t> DeltaBuffer::Buffer(const std::string& attribute,
                                   DataType type, const ColumnChange& change,
                                   bool coalesce) {
  if (type != DataType::kInt64 && type != DataType::kDouble) {
    return InvalidArgumentError("non-numeric delta on " + attribute);
  }
  auto number = [type](std::optional<int64_t> cell) -> std::optional<double> {
    if (!cell.has_value()) return std::nullopt;
    return type == DataType::kInt64 ? double(*cell)
                                    : std::bit_cast<double>(*cell);
  };
  AttrQueue& q = queues_[attribute];
  const size_t known = q.by_row.size();
  size_t k = 0;  // walks the pending rows alongside the ascending change
  for (const RawChange& c : change.cells) {
    RowDelta d{c.row(), number(c.old_cell()), number(c.new_cell())};
    if (coalesce) {
      while (k < known && q.by_row[k].first < c.row()) ++k;
      if (k < known && q.by_row[k].first == c.row()) {
        // Same row touched again before the flush: the summaries only
        // ever see first-old -> latest-new.
        q.items[q.by_row[k].second].new_value = d.new_value;
        continue;
      }
      q.by_row.emplace_back(c.row(), q.items.size());
    }
    q.items.push_back(d);
  }
  std::inplace_merge(q.by_row.begin(), q.by_row.begin() + ptrdiff_t(known),
                     q.by_row.end());
  return change.cells.size();
}

size_t DeltaBuffer::TotalPending() const {
  size_t total = 0;
  for (const auto& [attr, q] : queues_) total += q.items.size();
  return total;
}

std::vector<std::string> DeltaBuffer::PendingAttributes() const {
  std::vector<std::string> attrs;
  for (const auto& [attr, q] : queues_) {
    if (!q.items.empty()) attrs.push_back(attr);
  }
  return attrs;
}

std::vector<RowDelta> DeltaBuffer::Drain(const std::string& attribute) {
  auto it = queues_.find(attribute);
  if (it == queues_.end()) return {};
  std::vector<RowDelta> items = std::move(it->second.items);
  queues_.erase(it);
  return items;
}

}  // namespace statdb::delta
