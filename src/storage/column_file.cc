#include "storage/column_file.h"

#include <array>
#include <bit>
#include <cstring>

namespace statdb {
namespace {

/// kSpread[b][j] = bit j of b: one bitmap byte as eight validity bytes.
constexpr std::array<std::array<uint8_t, 8>, 256> MakeSpread() {
  std::array<std::array<uint8_t, 8>, 256> t{};
  for (size_t b = 0; b < 256; ++b) {
    for (size_t j = 0; j < 8; ++j) t[b][j] = uint8_t((b >> j) & 1);
  }
  return t;
}
constexpr std::array<std::array<uint8_t, 8>, 256> kSpread = MakeSpread();

}  // namespace

void ColumnPageView::CopyValidity(uint8_t* valid) const {
  size_t i = 0;
  if (first_slot_ % 8 == 0) {  // whole bitmap bytes, eight cells at once
    const uint8_t* bits = bitmap_ + first_slot_ / 8;
    for (; i + 8 <= size_; i += 8) {
      std::memcpy(valid + i, &kSpread[bits[i / 8]], 8);
    }
  }
  for (; i < size_; ++i) valid[i] = this->valid(i) ? 1 : 0;
}

bool ColumnFile::TestBit(const Page& p, size_t i) {
  return (p.bytes()[kBitmapOff + i / 8] >> (i % 8)) & 1;
}

void ColumnFile::SetBit(Page& p, size_t i, bool v) {
  uint8_t& byte = p.bytes()[kBitmapOff + i / 8];
  if (v) {
    byte |= static_cast<uint8_t>(1u << (i % 8));
  } else {
    byte &= static_cast<uint8_t>(~(1u << (i % 8)));
  }
}

void ColumnFile::PutCell(Page& p, size_t i, std::optional<int64_t> cell) {
  // Validity bitmap: bit set = value present, clear = missing.
  SetBit(p, i, cell.has_value());
  const int64_t raw = cell.value_or(0);
  std::memcpy(p.bytes() + kCellsOff + i * 8, &raw, 8);
}

Status ColumnFile::Append(std::optional<int64_t> cell) {
  uint64_t index = count_;
  size_t page_no = index / kCellsPerPage;
  size_t cell_no = index % kCellsPerPage;
  Page* page = nullptr;
  PageId pid;
  if (page_no == pages_.size()) {
    STATDB_ASSIGN_OR_RETURN(auto fresh, pool_->NewPage());
    pid = fresh.first;
    page = fresh.second;
    pages_.push_back(pid);
  } else {
    pid = pages_[page_no];
    STATDB_ASSIGN_OR_RETURN(page, pool_->FetchPage(pid));
  }
  PutCell(*page, cell_no, cell);
  uint32_t new_count = static_cast<uint32_t>(cell_no + 1);
  std::memcpy(page->bytes() + kCountOff, &new_count, sizeof(new_count));
  STATDB_RETURN_IF_ERROR(pool_->UnpinPage(pid, /*dirty=*/true));
  ++count_;
  return Status::OK();
}

Status ColumnFile::AppendDouble(std::optional<double> cell) {
  if (!cell.has_value()) return Append(std::nullopt);
  return Append(std::bit_cast<int64_t>(*cell));
}

Result<std::optional<int64_t>> ColumnFile::Get(uint64_t index) const {
  if (index >= count_) {
    return OutOfRangeError("column index out of range");
  }
  size_t page_no = index / kCellsPerPage;
  size_t cell_no = index % kCellsPerPage;
  // Read-only pin: resident pages are served lock-free (the snapshot
  // readers in statdb::session never queue behind the pool latch).
  STATDB_ASSIGN_OR_RETURN(ReadPin pin, pool_->FetchReadOnly(pages_[page_no]));
  std::optional<int64_t> out;
  if (TestBit(*pin.get(), cell_no)) {
    int64_t raw;
    std::memcpy(&raw, pin.get()->bytes() + kCellsOff + cell_no * 8, 8);
    out = raw;
  }
  return out;
}

Result<std::optional<double>> ColumnFile::GetDouble(uint64_t index) const {
  STATDB_ASSIGN_OR_RETURN(std::optional<int64_t> raw, Get(index));
  if (!raw.has_value()) return std::optional<double>();
  return std::optional<double>(std::bit_cast<double>(*raw));
}

Status ColumnFile::Set(uint64_t index, std::optional<int64_t> cell) {
  return SetCells(1, [&](size_t) { return std::pair(index, cell); });
}

Status ColumnFile::SetDouble(uint64_t index, std::optional<double> cell) {
  if (!cell.has_value()) return Set(index, std::nullopt);
  return Set(index, std::bit_cast<int64_t>(*cell));
}

Result<std::vector<std::optional<int64_t>>> ColumnFile::ReadAll() const {
  std::vector<std::optional<int64_t>> out;
  out.reserve(count_);
  STATDB_RETURN_IF_ERROR(
      ScanPages(0, count_, [&out](uint64_t, const ColumnPageView& page) {
        for (size_t i = 0; i < page.size(); ++i) {
          out.push_back(page.valid(i) ? std::optional<int64_t>(page.raw(i))
                                      : std::nullopt);
        }
        return Status::OK();
      }));
  return out;
}

}  // namespace statdb
