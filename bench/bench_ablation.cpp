// Ablations of statdb's own design choices (DESIGN.md §4 footnotes):
//  A. transposed bulk-load order — column-contiguous vs row-interleaved
//     page placement (the property that makes column scans sequential);
//  B. buffer pool size vs repeated-scan cost (when the working set fits,
//     re-scans are free; the paper's memory-management complaint about
//     Minitab/S in §2.4);
//  C. compressed vs raw column storage for scan I/O (Eggers, §2.6).

#include "bench/bench_util.h"
#include "relational/stored_table.h"
#include "storage/compressed_column_file.h"

using namespace statdb;
using namespace statdb::bench;

namespace {

void AblationA() {
  std::printf("--- A: transposed load order (20k rows, 9 columns) ---\n");
  Table census = MakeCensus(20000);
  for (bool columnar : {false, true}) {
    auto storage = MakeInstallation(1024, 65536);
    BufferPool* pool = Unwrap(storage->GetPool("disk"));
    SimulatedDevice* disk = Unwrap(storage->GetDevice("disk"));
    TransposedTable t(census.schema(), pool);
    if (columnar) {
      CheckOk(t.LoadFrom(census));  // column-at-a-time (the default)
    } else {
      for (size_t r = 0; r < census.num_rows(); ++r) {
        CheckOk(t.Append(census.GetRow(r)));  // row-at-a-time interleaving
      }
    }
    CheckOk(pool->FlushAll());
    CheckOk(pool->Reset());
    disk->ResetStats();
    Unwrap(t.ReadNumericColumn("INCOME"));
    std::printf("  %-16s: %5llu reads, %6llu seeks, %8.0f ms\n",
                columnar ? "column-contiguous" : "row-interleaved",
                (unsigned long long)disk->stats().block_reads,
                (unsigned long long)disk->stats().seeks,
                disk->stats().simulated_ms);
  }
}

void AblationB() {
  std::printf("\n--- B: buffer pool size vs repeated column scans ---\n");
  Table census = MakeCensus(50000);  // INCOME column = 100 pages
  std::printf("  %10s | %12s %12s\n", "pool pages", "scan1 reads",
              "scan2 reads");
  for (size_t pool_pages : {16ull, 64ull, 128ull, 1024ull}) {
    auto storage = std::make_unique<StorageManager>();
    CheckOk(storage->AddDevice("disk", DeviceCostModel::Disk(),
                               pool_pages)
                .status());
    BufferPool* pool = Unwrap(storage->GetPool("disk"));
    TransposedTable t(census.schema(), pool);
    CheckOk(t.LoadFrom(census));
    CheckOk(pool->FlushAll());
    CheckOk(pool->Reset());
    pool->ResetStats();
    Unwrap(t.ReadNumericColumn("INCOME"));
    uint64_t scan1 = pool->stats().misses;
    pool->ResetStats();
    Unwrap(t.ReadNumericColumn("INCOME"));
    uint64_t scan2 = pool->stats().misses;
    std::printf("  %10zu | %12llu %12llu\n", pool_pages,
                (unsigned long long)scan1, (unsigned long long)scan2);
  }
}

}  // namespace

int main() {
  Header("bench_ablation", "design-choice ablations (see DESIGN.md)");
  AblationA();
  AblationB();
  // C below, kept out of the helper to avoid storage lifetime juggling.
  std::printf("\n--- C: compressed vs raw column storage (clustered"
              " AGE_GROUP, 100k rows) ---\n");
  Table census = MakeCensus(100000, 42, /*sorted=*/true);
  std::vector<std::optional<int64_t>> cells;
  size_t idx = Unwrap(census.schema().IndexOf("AGE_GROUP"));
  for (size_t r = 0; r < census.num_rows(); ++r) {
    const Value& v = census.At(r, idx);
    cells.push_back(v.is_null() ? std::optional<int64_t>()
                                : std::optional<int64_t>(v.AsInt()));
  }
  auto storage = MakeInstallation(1024, 65536);
  BufferPool* pool = Unwrap(storage->GetPool("disk"));
  SimulatedDevice* disk = Unwrap(storage->GetDevice("disk"));
  ColumnFile raw(pool);
  for (const auto& c : cells) CheckOk(raw.Append(c));
  CompressedColumnFile compressed(pool);
  CheckOk(compressed.Load(cells));
  CheckOk(pool->FlushAll());
  CheckOk(pool->Reset());

  pool->ResetStats();
  disk->ResetStats();
  CheckOk(raw.ScanPages(0, raw.size(), [](uint64_t, const ColumnPageView&) {
    return Status::OK();
  }));
  std::printf("  raw column       : %4zu pages, scan %5llu reads,"
              " %7.0f ms\n",
              raw.page_count(),
              (unsigned long long)pool->stats().misses,
              disk->stats().simulated_ms);
  CheckOk(pool->Reset());
  pool->ResetStats();
  disk->ResetStats();
  CheckOk(compressed.Scan(
      [](uint64_t, std::optional<int64_t>) { return Status::OK(); }));
  std::printf("  compressed column: %4zu pages, scan %5llu reads,"
              " %7.0f ms (ratio %.0fx)\n",
              compressed.page_count(),
              (unsigned long long)pool->stats().misses,
              disk->stats().simulated_ms,
              compressed.CompressionRatio());
  return 0;
}
