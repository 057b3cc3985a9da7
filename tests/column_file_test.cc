#include "storage/column_file.h"

#include <utility>
#include <vector>

#include "check/check_access.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace statdb {
namespace {

TEST(ColumnFileTest, AppendGetRoundTrip) {
  TestStorage ts;
  ColumnFile col(&ts.pool);
  STATDB_ASSERT_OK(col.Append(42));
  STATDB_ASSERT_OK(col.Append(std::nullopt));
  STATDB_ASSERT_OK(col.Append(-7));
  EXPECT_EQ(col.size(), 3u);
  EXPECT_EQ(col.Get(0).value().value(), 42);
  EXPECT_FALSE(col.Get(1).value().has_value());
  EXPECT_EQ(col.Get(2).value().value(), -7);
}

TEST(ColumnFileTest, DoubleCells) {
  TestStorage ts;
  ColumnFile col(&ts.pool);
  STATDB_ASSERT_OK(col.AppendDouble(3.25));
  STATDB_ASSERT_OK(col.AppendDouble(std::nullopt));
  EXPECT_DOUBLE_EQ(col.GetDouble(0).value().value(), 3.25);
  EXPECT_FALSE(col.GetDouble(1).value().has_value());
}

TEST(ColumnFileTest, SetOverwritesAndTogglesNull) {
  TestStorage ts;
  ColumnFile col(&ts.pool);
  STATDB_ASSERT_OK(col.Append(1));
  STATDB_ASSERT_OK(col.Set(0, 99));
  EXPECT_EQ(col.Get(0).value().value(), 99);
  STATDB_ASSERT_OK(col.Set(0, std::nullopt));
  EXPECT_FALSE(col.Get(0).value().has_value());
  STATDB_ASSERT_OK(col.Set(0, 5));
  EXPECT_EQ(col.Get(0).value().value(), 5);
}

TEST(ColumnFileTest, SpansManyPages) {
  TestStorage ts(128);
  ColumnFile col(&ts.pool);
  const int n = 2600;  // > 5 pages at 500 cells/page
  for (int i = 0; i < n; ++i) {
    STATDB_ASSERT_OK(col.Append(i % 97 == 0 ? std::optional<int64_t>()
                                            : std::optional<int64_t>(i)));
  }
  EXPECT_EQ(col.size(), static_cast<uint64_t>(n));
  EXPECT_EQ(col.page_count(),
            static_cast<size_t>((n + ColumnFile::kCellsPerPage - 1) /
                                ColumnFile::kCellsPerPage));
  for (int i = 0; i < n; i += 127) {
    auto cell = col.Get(i);
    ASSERT_TRUE(cell.ok());
    if (i % 97 == 0) {
      EXPECT_FALSE(cell->has_value());
    } else {
      EXPECT_EQ(cell->value(), i);
    }
  }
}

// Every (row, cell) a ScanPages call hands out, with the number of
// callback invocations (one per page touched).
struct Scanned {
  std::vector<std::pair<uint64_t, std::optional<int64_t>>> cells;
  size_t calls = 0;
};

Result<Scanned> ScanAll(const ColumnFile& col, uint64_t begin, uint64_t end) {
  Scanned out;
  STATDB_RETURN_IF_ERROR(col.ScanPages(
      begin, end, [&out](uint64_t first_row, const ColumnPageView& page) {
        ++out.calls;
        for (size_t i = 0; i < page.size(); ++i) {
          out.cells.emplace_back(first_row + i,
                                 page.valid(i) ? std::optional(page.raw(i))
                                               : std::nullopt);
        }
        return Status::OK();
      }));
  return out;
}

// Latched and lock-free pins currently held on any frame of `pool`.
uint64_t PinsHeld(const BufferPool& pool) {
  MutexLock lock(CheckAccess::PoolMutex(pool));
  uint64_t pins = 0;
  for (const auto& frame : CheckAccess::Frames(pool)) {
    pins += uint64_t(frame.pin_count) + frame.fast_pins.load();
  }
  return pins;
}

TEST(ColumnFileTest, ScanVisitsEverythingInOrder) {
  TestStorage ts(64);
  ColumnFile col(&ts.pool);
  for (int i = 0; i < 1200; ++i) {
    STATDB_ASSERT_OK(col.Append(i));
  }
  auto scanned = ScanAll(col, 0, col.size());
  STATDB_ASSERT_OK(scanned);
  ASSERT_EQ(scanned->cells.size(), 1200u);
  for (uint64_t i = 0; i < 1200; ++i) {
    EXPECT_EQ(scanned->cells[i].first, i);
    EXPECT_EQ(scanned->cells[i].second.value(), static_cast<int64_t>(i));
  }
  EXPECT_EQ(scanned->calls, col.page_count());
}

TEST(ColumnFileTest, ScanTouchesEachPageOnce) {
  TestStorage ts(64);
  ColumnFile col(&ts.pool);
  for (int i = 0; i < 1500; ++i) {
    STATDB_ASSERT_OK(col.Append(i));
  }
  STATDB_ASSERT_OK(ts.pool.FlushAll());
  STATDB_ASSERT_OK(ts.pool.Reset());
  ts.pool.ResetStats();
  STATDB_ASSERT_OK(col.ScanPages(
      0, col.size(),
      [](uint64_t, const ColumnPageView&) { return Status::OK(); }));
  EXPECT_EQ(ts.pool.stats().misses, col.page_count());
  EXPECT_EQ(ts.pool.stats().hits, 0u);
}

TEST(ColumnFileTest, ScanPagesRangeStartsAndEndsMidPage) {
  TestStorage ts(64);
  ColumnFile col(&ts.pool);
  for (int i = 0; i < 1600; ++i) {
    STATDB_ASSERT_OK(col.Append(i * 7));
  }
  STATDB_ASSERT_OK(ts.pool.FlushAll());
  STATDB_ASSERT_OK(ts.pool.Reset());
  ts.pool.ResetStats();
  // [250, 1270) covers the back half of page 0, all of page 1 and the
  // front of page 2: three calls, three misses.
  auto scanned = ScanAll(col, 250, 1270);
  STATDB_ASSERT_OK(scanned);
  EXPECT_EQ(scanned->calls, 3u);
  EXPECT_EQ(ts.pool.stats().misses, 3u);
  ASSERT_EQ(scanned->cells.size(), 1020u);
  for (size_t k = 0; k < scanned->cells.size(); ++k) {
    EXPECT_EQ(scanned->cells[k].first, 250 + k);
    EXPECT_EQ(scanned->cells[k].second.value(), int64_t(250 + k) * 7);
  }
  // A range inside one page, a range past the end, and an empty range.
  auto inner = ScanAll(col, 510, 520);
  STATDB_ASSERT_OK(inner);
  EXPECT_EQ(inner->calls, 1u);
  ASSERT_EQ(inner->cells.size(), 10u);
  EXPECT_EQ(inner->cells.front().first, 510u);
  auto tail = ScanAll(col, 1590, 1'000'000);
  STATDB_ASSERT_OK(tail);
  ASSERT_EQ(tail->cells.size(), 10u);
  EXPECT_EQ(tail->cells.back().first, 1599u);
  auto empty = ScanAll(col, 700, 700);
  STATDB_ASSERT_OK(empty);
  EXPECT_EQ(empty->calls, 0u);
}

TEST(ColumnFileTest, ScanPagesNullsOnFirstAndLastCellOfAPage) {
  TestStorage ts(64);
  ColumnFile col(&ts.pool);
  constexpr uint64_t kPage = ColumnFile::kCellsPerPage;
  auto is_null = [](uint64_t i) {
    return i % kPage == 0 || i % kPage == kPage - 1;
  };
  for (uint64_t i = 0; i < 3 * kPage; ++i) {
    STATDB_ASSERT_OK(col.Append(is_null(i) ? std::nullopt
                                           : std::optional(int64_t(i))));
  }
  // Cell slots 0 and 499 land on bitmap bits 0 and 7 of bytes 0 and 62;
  // a mid-page start shifts every view index off the slot number.
  for (uint64_t begin : {uint64_t{0}, kPage - 1, kPage + 3}) {
    auto scanned = ScanAll(col, begin, col.size());
    STATDB_ASSERT_OK(scanned);
    ASSERT_EQ(scanned->cells.size(), col.size() - begin);
    for (const auto& [row, cell] : scanned->cells) {
      if (is_null(row)) {
        EXPECT_FALSE(cell.has_value()) << "row " << row;
      } else {
        EXPECT_EQ(cell, std::optional(int64_t(row))) << "row " << row;
      }
    }
  }
}

TEST(ColumnFileTest, ScanPagesErrorStopsTheScanWithNoPinHeld) {
  TestStorage ts(64);
  ColumnFile col(&ts.pool);
  for (int i = 0; i < 2000; ++i) {
    STATDB_ASSERT_OK(col.Append(i));
  }
  STATDB_ASSERT_OK(ts.pool.FlushAll());
  // Cold pool (latched pins on misses), then warm (lock-free pins).
  STATDB_ASSERT_OK(ts.pool.Reset());
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<uint64_t> firsts;
    Status s = col.ScanPages(
        0, col.size(), [&firsts](uint64_t first_row, const ColumnPageView&) {
          firsts.push_back(first_row);
          return firsts.size() == 2 ? InternalError("stop here")
                                    : Status::OK();
        });
    EXPECT_EQ(s.code(), StatusCode::kInternal) << "pass " << pass;
    EXPECT_EQ(s.message(), "stop here");
    EXPECT_EQ(firsts, (std::vector<uint64_t>{0, ColumnFile::kCellsPerPage}));
    EXPECT_EQ(PinsHeld(ts.pool), 0u) << "pass " << pass;
  }
  STATDB_ASSERT_OK(ts.pool.Reset());
}

TEST(ColumnFileTest, ReadAllMatches) {
  TestStorage ts;
  ColumnFile col(&ts.pool);
  for (int i = 0; i < 700; ++i) {
    STATDB_ASSERT_OK(col.Append(i * 3));
  }
  auto all = col.ReadAll();
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 700u);
  EXPECT_EQ((*all)[699].value(), 2097);
}

TEST(ColumnFileTest, OutOfRangeAccess) {
  TestStorage ts;
  ColumnFile col(&ts.pool);
  EXPECT_EQ(col.Get(0).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(col.Set(0, 1).code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace statdb
