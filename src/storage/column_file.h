#ifndef STATDB_STORAGE_COLUMN_FILE_H_
#define STATDB_STORAGE_COLUMN_FILE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/buffer_pool.h"

namespace statdb {

/// One pinned column page's share of a `ColumnFile::ScanPages` call:
/// cells [0, size()) are consecutive rows starting at the `first_row`
/// handed to the callback. Borrowed — valid only inside that callback,
/// whose return releases the page's pin.
class ColumnPageView {
 public:
  size_t size() const { return size_; }

  /// False for a missing value.
  bool valid(size_t i) const {
    const size_t slot = first_slot_ + i;
    return ((bitmap_[slot / 8] >> (slot % 8)) & 1) != 0;
  }

  /// The raw 8-byte cell: an int64, or the bit pattern of a double.
  int64_t raw(size_t i) const {
    int64_t v;
    std::memcpy(&v, cells_ + (first_slot_ + i) * 8, sizeof(v));
    return v;
  }

  /// Copies the size() raw cells to `dst` (8 bytes each: an int64 array,
  /// or a double array for a double column) and their validity to
  /// `valid` (1 = present), the bulk forms of raw() and valid().
  void CopyCells(void* dst) const {
    std::memcpy(dst, cells_ + first_slot_ * 8, size_ * 8);
  }
  void CopyValidity(uint8_t* valid) const;

 private:
  friend class ColumnFile;
  ColumnPageView(const uint8_t* bitmap, const uint8_t* cells,
                 size_t first_slot, size_t size)
      : bitmap_(bitmap),
        cells_(cells),
        first_slot_(first_slot),
        size_(size) {}

  const uint8_t* bitmap_;
  const uint8_t* cells_;
  size_t first_slot_;
  size_t size_;
};

/// One column of a transposed ("fully inverted", DSM) file — the storage
/// structure the paper recommends for statistical data sets (§2.6,
/// RAPID/ALDS style). Values are fixed-width 8-byte cells (int64 or the
/// bit pattern of a double; the Table layer dictionary-encodes strings)
/// plus a per-page null bitmap for "missing values".
///
/// Page layout: u32 count | 64-byte null bitmap | 500 * 8-byte cells.
class ColumnFile {
 public:
  /// Cells per page; chosen so count + bitmap + cells fit in kPageSize.
  static constexpr size_t kCellsPerPage = 500;

  explicit ColumnFile(BufferPool* pool) : pool_(pool) {}

  /// Re-attaches to an existing on-device column (crash recovery): the
  /// page list and cell count come from a durable manifest, the pages
  /// themselves from the device. No I/O happens here.
  ColumnFile(BufferPool* pool, std::vector<PageId> pages, uint64_t count)
      : pool_(pool), pages_(std::move(pages)), count_(count) {}

  ColumnFile(const ColumnFile&) = delete;
  ColumnFile& operator=(const ColumnFile&) = delete;

  /// Appends a cell; nullopt appends a missing value.
  Status Append(std::optional<int64_t> cell);
  Status AppendDouble(std::optional<double> cell);

  /// Reads cell `index`; nullopt means missing.
  Result<std::optional<int64_t>> Get(uint64_t index) const;
  Result<std::optional<double>> GetDouble(uint64_t index) const;

  /// Overwrites cell `index`.
  Status Set(uint64_t index, std::optional<int64_t> cell);
  Status SetDouble(uint64_t index, std::optional<double> cell);

  /// Overwrites `n` cells, pinning each page once per run of its cells:
  /// `at(i)` returns the i-th (index, cell) pair, and indexes on one page
  /// must be adjacent in the sequence (ascending ones are). An index out
  /// of range fails the call before any cell is written.
  template <typename At>
  Status SetCells(size_t n, At&& at) {
    for (size_t i = 0; i < n; ++i) {
      if (at(i).first >= count_) {
        return OutOfRangeError("column index out of range");
      }
    }
    for (size_t i = 0; i < n;) {
      const uint64_t page_no = at(i).first / kCellsPerPage;
      const PageId pid = pages_[page_no];
      STATDB_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(pid));
      for (; i < n && at(i).first / kCellsPerPage == page_no; ++i) {
        const auto [index, cell] = at(i);
        PutCell(*page, size_t(index % kCellsPerPage), cell);
      }
      STATDB_RETURN_IF_ERROR(pool_->UnpinPage(pid, /*dirty=*/true));
    }
    return Status::OK();
  }

  /// The column scan — the access pattern transposed files optimize for
  /// (§2.6). Calls `fn(first_row, const ColumnPageView&) -> Status` once
  /// per page covering cells [begin, min(end, size())), in order, with
  /// that page's cells in the range. Each page is read-pinned once and
  /// released before the next is fetched: a fast-pin holder must never
  /// block on the pool latch while pinned (the eviction path relies on
  /// fast pins being transient; see BufferPool's class comment), so `fn`
  /// must not pin another page. A non-OK status from `fn` stops the scan
  /// and is returned. Touches only the pages covering the range, so
  /// page-aligned ranges from concurrent callers never share a page; safe
  /// to call from multiple threads (the buffer pool is internally
  /// synchronized and this object is not mutated).
  template <typename Fn>
  Status ScanPages(uint64_t begin, uint64_t end, Fn&& fn) const {
    end = std::min(end, count_);
    for (uint64_t row = begin; row < end;) {
      const size_t slot = size_t(row % kCellsPerPage);
      const size_t n =
          size_t(std::min<uint64_t>(kCellsPerPage - slot, end - row));
      const PageId pid = pages_[row / kCellsPerPage];
      STATDB_ASSIGN_OR_RETURN(ReadPin pin, pool_->FetchReadOnly(pid));
      const uint8_t* bytes = pin.get()->bytes();
      Status s = fn(row, ColumnPageView(bytes + kBitmapOff, bytes + kCellsOff,
                                        slot, n));
      pin.Release();
      STATDB_RETURN_IF_ERROR(s);
      row += n;
    }
    return Status::OK();
  }

  /// Bulk-reads the whole column (missing as nullopt).
  Result<std::vector<std::optional<int64_t>>> ReadAll() const;

  uint64_t size() const { return count_; }
  size_t page_count() const { return pages_.size(); }

  /// Device page ids backing this column, in file order — what the
  /// durability manifest records so recovery can re-attach.
  const std::vector<PageId>& page_ids() const { return pages_; }

 private:
  /// Read-only introspection for the structural auditor (src/check).
  friend class CheckAccess;

  static constexpr size_t kCountOff = 0;
  static constexpr size_t kBitmapOff = 8;
  static constexpr size_t kBitmapBytes = 64;
  static constexpr size_t kCellsOff = kBitmapOff + kBitmapBytes;

  static bool TestBit(const Page& p, size_t i);
  static void SetBit(Page& p, size_t i, bool v);
  /// Writes slot `i`'s validity bit and raw cell (0 when missing).
  static void PutCell(Page& p, size_t i, std::optional<int64_t> cell);

  BufferPool* pool_;
  std::vector<PageId> pages_;
  uint64_t count_ = 0;
};

}  // namespace statdb

#endif  // STATDB_STORAGE_COLUMN_FILE_H_
