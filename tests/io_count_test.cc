// Exact device I/O counts behind the access-pattern claims of
// EXPERIMENTS.md: the paper's E1-E3, E5, E8, E10-E12, E15 and ablations A
// and B (each commented where it is checked), and this implementation's
// E16-E21. Every figure here is a block count read off the simulated
// devices' IoStats at small scale: no clock, no cost-model milliseconds,
// so each assertion is exact and machine-independent.
//
//   E16  one QueryMany battery reads its column once; the same
//        statistics asked one Query at a time read it once each.
//   E18  the compressed route reads the RLE sidecar, not the column; the
//        column in turn reads fewer blocks than the row file.
//   E20  delta-batched maintenance at batch 64 writes >= 3x fewer disk
//        blocks than eager maintenance, over the same WAL commits.
//   E17/E21  the flight recorder (on or sampled), slow-trace capture at
//        threshold 0 and the Chrome export leave device I/O unchanged.
//   E22  rounds of uncached holistic requests read their column once, to
//        build its order state; after a 100-cell update the next
//        quantile reads no page of the column.
//   Write path: a whole-column edit, its rollback and a regeneration each
//        pin every page of the column once to install it and write it
//        to disk once.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/dbms.h"
#include "delta/policy.h"
#include "gtest/gtest.h"
#include "relational/datagen.h"
#include "relational/expr.h"
#include "relational/stored_table.h"
#include "tests/test_util.h"

namespace statdb {
namespace {

/// The mergeable battery of E16/E18: every statistic finishes from the
/// partial states of one pass.
const std::vector<std::string> kBattery = {
    "count", "sum",   "mean", "variance", "stddev",   "min",
    "max",   "range", "mode", "distinct", "histogram"};

/// A disk pool far smaller than any scanned column, so each pass over a
/// column misses on every one of its pages: block reads count passes.
constexpr size_t kSmallDiskPool = 8;

/// Every query first probes the view's Summary Database, whose one-page
/// tree the previous scan evicted from the small pool: one block read.
constexpr uint64_t kProbeReads = 1;

/// A disk that logs the pages it reads, so a count can name the column
/// they belong to.
class PageLogDevice : public SimulatedDevice {
 public:
  PageLogDevice() : SimulatedDevice("disk", DeviceCostModel::Disk()) {}

  Status ReadPage(PageId id, Page* out) override {
    reads_.push_back(id);
    return SimulatedDevice::ReadPage(id, out);
  }

  const std::vector<PageId>& reads() const { return reads_; }

 private:
  std::vector<PageId> reads_;
};

/// Deterministic incompressible microdata: ID = i, X = a multiplicative
/// hash of i (no RNG, so every page-touch sequence is fixed).
Table MakeStream(uint64_t rows) {
  Table t(Schema({Attribute::Numeric("ID", DataType::kInt64),
                  Attribute::Numeric("X", DataType::kDouble)}));
  for (uint64_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(t.AppendRow({Value::Int(int64_t(i)),
                             Value::Real(std::fmod(double(i) * 2654435761.0,
                                                   1e5))})
                    .ok());
  }
  return t;
}

/// Sorted single-attribute microdata in runs of `run` equal values, so
/// the RLE sidecar is a page where the column is dozens.
Table MakeRuns(uint64_t rows, uint64_t run) {
  Table t(Schema({Attribute::Numeric("CAT", DataType::kInt64)}));
  for (uint64_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(t.AppendRow({Value::Int(int64_t(i / run))}).ok());
  }
  return t;
}

/// Device I/O that `fn` causes on `dev`.
IoStats IoOf(SimulatedDevice* dev, const std::function<void()>& fn) {
  const IoStats before = dev->stats();
  fn();
  const IoStats after = dev->stats();
  IoStats d;
  d.block_reads = after.block_reads - before.block_reads;
  d.block_writes = after.block_writes - before.block_writes;
  d.seeks = after.seeks - before.seeks;
  return d;
}

size_t ColumnPages(StatisticalDbms* db, const std::string& view,
                   size_t column) {
  Result<ConcreteView*> v = db->GetView(view);
  EXPECT_TRUE(v.ok());
  return v.ok() ? v.value()->ExportColumns()[column].pages.size() : 0;
}

class IoCountTest : public ::testing::Test {
 protected:
  /// One view "v" over `data` on a tape + small-disk installation.
  void Load(const Table& data, size_t disk_pool = kSmallDiskPool,
            MaintenancePolicy policy = MaintenancePolicy::kInvalidate) {
    storage_ = std::make_unique<StorageManager>();
    STATDB_ASSERT_OK(
        storage_->AddDevice("tape", DeviceCostModel::Tape(), 256).status());
    auto disk = std::make_unique<PageLogDevice>();
    disk_log_ = disk.get();
    STATDB_ASSERT_OK(
        storage_->AdoptDevice("disk", std::move(disk), disk_pool).status());
    disk_ = storage_->GetDevice("disk").value();
    db_ = std::make_unique<StatisticalDbms>(storage_.get());
    STATDB_ASSERT_OK(db_->LoadRawDataSet("raw", data));
    ViewDefinition def;
    def.source = "raw";
    STATDB_ASSERT_OK(db_->CreateView("v", def, policy).status());
    no_cache_.cache_result = false;
  }

  void SerialBattery(const std::string& attr) {
    for (const std::string& fn : kBattery) {
      STATDB_ASSERT_OK(db_->Query("v", fn, attr, {}, no_cache_).status());
    }
  }

  void SharedBattery(const std::string& attr, size_t workers) {
    std::vector<QueryRequest> requests;
    for (const std::string& fn : kBattery) requests.push_back({fn, attr, {}});
    STATDB_ASSERT_OK(
        db_->QueryMany("v", requests, no_cache_, workers).status());
  }

  /// Reads that `fn` causes of pages of view v's column `column`.
  uint64_t ColumnReads(size_t column, const std::function<void()>& fn) {
    const std::vector<PageId> pages =
        db_->GetView("v").value()->ExportColumns()[column].pages;
    const size_t before = disk_log_->reads().size();
    fn();
    uint64_t n = 0;
    for (size_t i = before; i < disk_log_->reads().size(); ++i) {
      n += std::count(pages.begin(), pages.end(), disk_log_->reads()[i]);
    }
    return n;
  }

  std::unique_ptr<StorageManager> storage_;
  SimulatedDevice* disk_ = nullptr;
  PageLogDevice* disk_log_ = nullptr;
  std::unique_ptr<StatisticalDbms> db_;
  QueryOptions no_cache_;
};

// E16: the shared battery pays one column read for all eleven
// statistics; serial Query calls pay it eleven times.
TEST_F(IoCountTest, SharedBatteryReadsTheColumnOnce) {
  Load(MakeStream(20'000));
  const uint64_t pages = ColumnPages(db_.get(), "v", 1);
  ASSERT_GT(pages, 4 * kSmallDiskPool);
  SerialBattery("X");  // settle the pool into its steady state

  const IoStats one = IoOf(disk_, [&] {
    STATDB_ASSERT_OK(db_->Query("v", "mean", "X", {}, no_cache_).status());
  });
  const IoStats serial = IoOf(disk_, [&] { SerialBattery("X"); });
  const IoStats shared = IoOf(disk_, [&] { SharedBattery("X", 1); });

  EXPECT_EQ(one.block_reads, pages + kProbeReads);
  // The histogram reads X's order state, which the settling battery's
  // histogram built: no scan, only its probe, which reads back the tree
  // page distinct's scan evicted. The other ten each pay `one`.
  EXPECT_EQ(serial.block_reads,
            (kBattery.size() - 1) * one.block_reads + kProbeReads);
  // That probe left the tree page resident, so the shared battery's
  // probes read nothing: one pass over the column.
  EXPECT_EQ(shared.block_reads, pages);
}

// E18: sorted runs. The compressed route reads the sidecar's pages once
// for the whole battery; the materialized route reads the column once
// per statistic; the row file reads every heap page per statistic.
TEST_F(IoCountTest, CompressedRouteReadsFewerBlocksThanColumnAndRowFile) {
  const Table data = MakeRuns(20'000, 1000);
  Load(data);
  const CompressedColumnFile* sidecar =
      db_->GetView("v").value()->CompressedSidecar("CAT");
  ASSERT_NE(sidecar, nullptr);
  const uint64_t column_pages = ColumnPages(db_.get(), "v", 0);

  db_->set_compressed_scan_enabled(false);
  SerialBattery("CAT");
  const IoStats materialized = IoOf(disk_, [&] { SerialBattery("CAT"); });
  db_->set_compressed_scan_enabled(true);
  const IoStats compressed = IoOf(disk_, [&] { SerialBattery("CAT"); });

  BufferPool* pool = storage_->GetPool("disk").value();
  StoredRowTable heap(data.schema(), pool);
  STATDB_ASSERT_OK(heap.LoadFrom(data));
  STATDB_ASSERT_OK(pool->FlushAll());
  const IoStats row_file = IoOf(disk_, [&] {
    for (size_t s = 0; s < kBattery.size(); ++s) {
      STATDB_ASSERT_OK(
          heap.Scan([](const Row&) { return Status::OK(); }));
    }
  });

  // The materialized histogram reads CAT's order state (built by the
  // settling battery): its probe only. It leaves the tree page resident,
  // so the compressed battery reads nothing but the sidecar.
  EXPECT_EQ(materialized.block_reads,
            (kBattery.size() - 1) * (column_pages + kProbeReads) +
                kProbeReads);
  EXPECT_EQ(compressed.block_reads, sidecar->page_count());
  EXPECT_EQ(row_file.block_reads, kBattery.size() * heap.page_count());
  EXPECT_GE(materialized.block_reads, 3 * compressed.block_reads);
  EXPECT_LT(materialized.block_reads, row_file.block_reads);
}

struct MaintenanceIo {
  uint64_t disk_writes = 0;
  uint64_t commits = 0;
};

/// E20's update stream: `updates` single-row contractions of X with
/// durability on and twenty armed summary entries on X (nine scalars,
/// eleven wide histograms), under one fixed maintenance strategy.
MaintenanceIo RunUpdateStream(delta::MaintenanceStrategy strategy,
                              size_t flush_threshold, int updates) {
  auto storage = MakeTapeDiskStorage(/*tape_pool=*/256, /*disk_pool=*/4096);
  EXPECT_TRUE(storage->AddDevice("wal", DeviceCostModel::Disk(), 8).ok());
  SimulatedDevice* disk = storage->GetDevice("disk").value();
  StatisticalDbms db(storage.get());
  EXPECT_TRUE(db.EnableDurability("wal").ok());
  EXPECT_TRUE(db.LoadRawDataSet("raw", MakeStream(4096)).ok());
  ViewDefinition def;
  def.source = "raw";
  EXPECT_TRUE(
      db.CreateView("v", def, MaintenancePolicy::kIncremental).ok());
  delta::DeltaConfig cfg;
  cfg.adaptive = false;
  cfg.default_strategy = strategy;
  cfg.flush_threshold = flush_threshold;
  db.set_delta_config(cfg);
  for (const char* fn : {"count", "sum", "mean", "variance", "stddev", "min",
                         "max", "mode", "distinct"}) {
    EXPECT_TRUE(db.Query("v", fn, "X").ok());
  }
  // Eleven wide histograms, about 8 KB of varint counts, span several
  // B-tree leaves, so each of those pages is in the per-commit write set.
  for (double buckets = 128; buckets <= 1408; buckets += 128) {
    FunctionParams hp;
    hp.Set("buckets", buckets);
    EXPECT_TRUE(db.Query("v", "histogram", "X", hp).ok());
  }

  const uint64_t lsn0 = db.redo_log()->last_lsn();
  const IoStats io = IoOf(disk, [&] {
    for (int u = 0; u < updates; ++u) {
      UpdateSpec spec;
      spec.predicate = Eq(Col("ID"), Lit(int64_t(u)));
      spec.column = "X";
      // Contracts into [2e4, 6e4]: no histogram spill.
      spec.value = Add(Mul(Col("X"), Lit(0.4)), Lit(2e4));
      spec.description = "contraction";
      EXPECT_TRUE(db.Update("v", spec).ok());
    }
    EXPECT_TRUE(db.FlushDeltas("v").ok());
  });
  return {io.block_writes, db.redo_log()->last_lsn() - lsn0};
}

TEST(IoCountMaintenanceTest, BatchOf64WritesThreeTimesFewerBlocksThanEager) {
  constexpr int kUpdates = 128;
  const MaintenanceIo eager = RunUpdateStream(
      delta::MaintenanceStrategy::kEagerIncremental, 1, kUpdates);
  const MaintenanceIo batched = RunUpdateStream(
      delta::MaintenanceStrategy::kDeltaBatched, 64, kUpdates);
  EXPECT_GT(batched.disk_writes, 0u);
  EXPECT_GE(eager.disk_writes, 3 * batched.disk_writes);
  EXPECT_EQ(eager.commits, uint64_t(kUpdates));
  EXPECT_EQ(batched.commits, eager.commits);
}

// E17/E21: observation must not change the physical plan. Each
// configuration runs the same uncached battery and must cause exactly
// the device I/O of the configuration with every consumer off.
TEST_F(IoCountTest, ObservationLeavesDeviceIoUnchanged) {
  Load(MakeStream(20'000));
  FlightRecorder& flight = db_->flight();
  SlowQueryLog& slow = flight.slow_log();
  slow.set_threshold_ms(0.0);
  auto battery_io = [&](bool on, uint64_t sample_every, bool capture,
                        bool export_trace) {
    flight.set_enabled(on);
    flight.set_sample_every(sample_every);
    slow.set_enabled(capture);
    return IoOf(disk_, [&] {
      SharedBattery("X", 1);
      if (export_trace) {
        EXPECT_FALSE(db_->DumpChromeTrace().empty());
      }
    });
  };

  battery_io(false, 1, false, false);  // settle the pool
  const IoStats off = battery_io(false, 1, false, false);
  const IoStats on = battery_io(true, 1, false, false);
  const IoStats sampled = battery_io(true, 16, false, false);
  const IoStats captured = battery_io(true, 1, true, false);
  const IoStats exported = battery_io(true, 1, true, true);

  ASSERT_GT(off.block_reads, 0u);
  for (const IoStats* io : {&on, &sampled, &captured, &exported}) {
    EXPECT_EQ(io->block_reads, off.block_reads);
    EXPECT_EQ(io->block_writes, off.block_writes);
    EXPECT_EQ(io->seeks, off.seeks);
  }
  // Each configuration really observed something.
  EXPECT_GT(flight.recorded(), 0u);
  EXPECT_GT(flight.sampled_out(), 0u);
  EXPECT_GT(slow.captured(), 0u);
}

// A predicate update reads each column its predicate, value and target
// reference once, page by page, and no other column.
TEST_F(IoCountTest, PredicateUpdateReadsEachReferencedColumnOnce) {
  Table data(Schema({Attribute::Numeric("ID", DataType::kInt64),
                     Attribute::Numeric("X", DataType::kDouble),
                     Attribute::Numeric("Y", DataType::kDouble)}));
  for (int64_t i = 0; i < 20'000; ++i) {
    STATDB_ASSERT_OK(data.AppendRow(
        {Value::Int(i), Value::Real(double(i % 997)), Value::Real(0.5)}));
  }
  Load(data);
  const uint64_t id_pages = ColumnPages(db_.get(), "v", 0);
  const uint64_t x_pages = ColumnPages(db_.get(), "v", 1);
  ASSERT_GT(id_pages, 4 * kSmallDiskPool);

  // Two predicate columns and a third, the target, read by the value.
  UpdateSpec spec;
  spec.column = "Y";
  spec.value = Mul(Col("Y"), Lit(2.0));
  spec.predicate = And(Lt(Col("ID"), Lit(int64_t{0})), Gt(Col("X"), Lit(1.0)));
  const IoStats io = IoOf(disk_, [&] {
    Result<uint64_t> changed = db_->Update("v", spec);
    STATDB_ASSERT_OK(changed);
    EXPECT_EQ(*changed, 0u);
  });
  const uint64_t y_pages = ColumnPages(db_.get(), "v", 2);
  EXPECT_EQ(io.block_reads, id_pages + x_pages + y_pages);

  // Without Y in the predicate or value, only ID and X are read.
  spec.column = "X";
  spec.value = nullptr;
  const IoStats narrow = IoOf(disk_, [&] {
    STATDB_ASSERT_OK(db_->Update("v", spec));
  });
  EXPECT_EQ(narrow.block_reads, id_pages + x_pages);
}

// The one write path installs a staged change a page at a time: a
// whole-column edit, its rollback and a regeneration each write every
// page of the written column to disk exactly once (the pool is flushed
// clean before and after each step), and fetch it once for the install.
// Beyond the column scans, a step's only fetches are a few probes of the
// view's Summary Database; a cell-at-a-time install would fetch each
// page once per cell.
TEST_F(IoCountTest, WholeColumnWritesEveryPageOnce) {
  Load(MakeStream(20'000));
  // The post-update auditor (on by default in Debug builds) fetches
  // summary pages of its own; this test counts the write path's.
  db_->set_audit_after_update(false);
  STATDB_ASSERT_OK(db_->AddDerivedColumn(
      "v", DerivedColumnDef::Residuals("R", "ID", "X")));
  BufferPool* pool = storage_->GetPool("disk").value();
  const uint64_t id_pages = ColumnPages(db_.get(), "v", 0);
  const uint64_t x_pages = ColumnPages(db_.get(), "v", 1);
  const uint64_t r_pages = ColumnPages(db_.get(), "v", 2);
  ASSERT_GT(x_pages, 4 * kSmallDiskPool);
  // Block writes of `fn` plus the flush after it; pool fetches of `fn`.
  auto step = [&](const std::function<void()>& fn, uint64_t* fetches) {
    EXPECT_TRUE(pool->FlushAll().ok());
    const BufferPoolStats before = pool->stats();
    IoStats io = IoOf(disk_, [&] {
      fn();
      EXPECT_TRUE(pool->FlushAll().ok());
    });
    const BufferPoolStats after = pool->stats();
    *fetches = after.hits + after.misses - before.hits - before.misses;
    return io.block_writes;
  };

  constexpr uint64_t kSummaryProbes = 8;  // at most, per step
  auto expect_fetches = [&](uint64_t fetches, uint64_t scans_and_install) {
    EXPECT_GE(fetches, scans_and_install);
    EXPECT_LE(fetches, scans_and_install + kSummaryProbes);
  };

  UpdateSpec edit;
  edit.column = "X";
  edit.value = Mul(Col("X"), Lit(3.0));
  uint64_t fetches = 0;
  EXPECT_EQ(step([&] { STATDB_ASSERT_OK(db_->Update("v", edit)); },
                 &fetches),
            x_pages);
  expect_fetches(fetches, x_pages + x_pages);  // staging scan, install

  // The edit left R out of date: regeneration fits on the (ID, X) zip,
  // stages R on the (ID, X, R) zip and installs it.
  EXPECT_EQ(step([&] {
              STATDB_ASSERT_OK(db_->RegenerateDerivedColumn("v", "R"));
            }, &fetches),
            r_pages);
  expect_fetches(fetches, (id_pages + x_pages) +
                              (id_pages + x_pages + r_pages) + r_pages);

  EXPECT_EQ(step([&] { STATDB_ASSERT_OK(db_->Rollback("v", 0)); },
                 &fetches),
            x_pages);
  expect_fetches(fetches, x_pages);  // the install only
}


// E1 (§3.1, Fig. 5): repeating {median, mean, p95} r times costs r column
// passes per function uncached and one pass per function cached; every
// repeat after the first is a Summary Database hit.
TEST_F(IoCountTest, SummaryCacheComputesEachFunctionOnce) {
  Load(MakeStream(20'000));
  SerialBattery("X");  // settle the pool into its steady state
  const uint64_t pages = ColumnPages(db_.get(), "v", 1);
  constexpr uint64_t kRepeats = 4;
  FunctionParams p95;
  p95.Set("p", 0.95);
  auto session = [&](const QueryOptions& opts) {
    return IoOf(disk_, [&] {
      for (uint64_t r = 0; r < kRepeats; ++r) {
        for (const char* fn : {"median", "mean", "quantile"}) {
          const bool q = std::string(fn) == "quantile";
          STATDB_ASSERT_OK(
              db_->Query("v", fn, "X", q ? p95 : FunctionParams(), opts));
        }
      }
    });
  };
  const IoStats uncached = session(no_cache_);
  SummaryDatabase* sdb = db_->GetSummaryDb("v").value();
  sdb->ResetStats();
  const IoStats cached = session(QueryOptions());
  // median and quantile read X's order state, which the settling
  // battery's histogram built: only mean scans. Each round's mean evicts
  // the tree page and its quantile's probe reads it back; the first
  // median's probe reads it once more (the battery's scans evicted it).
  EXPECT_EQ(uncached.block_reads,
            kProbeReads + kRepeats * (pages + kProbeReads));
  // Cached: one pass, for mean, and one read of the tree page its scan
  // evicted, to insert the result. Every other probe and insert finds
  // that page resident.
  EXPECT_EQ(cached.block_reads, pages + 1);
  EXPECT_DOUBLE_EQ(sdb->stats().HitRate(), (kRepeats - 1.0) / kRepeats);
}

/// 5,000 rows of nine-attribute census microdata at a fixed seed; each
/// column is 10 pages, INCOME is column 6.
Table Census() {
  CensusOptions opts;
  opts.rows = 5'000;
  Rng rng(42);
  return GenerateCensusMicrodata(opts, &rng).value();
}

/// Device I/O that `fn` causes on `ts` once every page is flushed and
/// evicted.
IoStats ColdIo(TestStorage* ts, const std::function<void()>& fn) {
  EXPECT_TRUE(ts->pool.FlushAll().ok());
  EXPECT_TRUE(ts->pool.Reset().ok());
  return IoOf(&ts->device, fn);
}

// E2/E3 (§2.6): aggregating k of the nine columns reads k columns' pages
// where the row file reads all of its pages at every k; a whole-row read
// reads one page of the row file (and one per attribute transposed,
// TransposedTableTest.ColumnScanTouchesOnlyThatColumn).
TEST(IoCountLayoutTest, TransposedReadsTouchedColumnsRowFileReadsAll) {
  const Table census = Census();
  TestStorage ts(/*pool_pages=*/4);
  TransposedTable cols(census.schema(), &ts.pool);
  StoredRowTable rows(census.schema(), &ts.pool);
  STATDB_ASSERT_OK(cols.LoadFrom(census));
  STATDB_ASSERT_OK(rows.LoadFrom(census));
  const uint64_t column_pages = cols.ExportColumns()[0].pages.size();
  ASSERT_EQ(cols.page_count(), 9 * column_pages);
  for (size_t k : {1, 3, 9}) {
    const IoStats col_io = ColdIo(&ts, [&] {
      for (size_t c = 0; c < k; ++c) {
        STATDB_ASSERT_OK(cols.ReadColumn(census.schema().attr(c).name));
      }
    });
    const IoStats row_io = ColdIo(&ts, [&] {
      STATDB_ASSERT_OK(rows.Scan([](const Row&) { return Status::OK(); }));
    });
    EXPECT_EQ(col_io.block_reads, k * column_pages);
    EXPECT_EQ(row_io.block_reads, rows.page_count());
  }
  const RecordId middle{uint32_t(rows.page_count() / 2), 0};
  EXPECT_EQ(ColdIo(&ts, [&] {
              STATDB_ASSERT_OK(rows.ReadRecord(middle));
            }).block_reads,
            1u);
}

// Ablation A: a column-contiguous load scans a column with one seek; a
// row-at-a-time Append load interleaves the columns' pages, so the same
// scan seeks once per page.
TEST(IoCountLayoutTest, ColumnContiguousLoadScansWithOneSeek) {
  const Table census = Census();
  for (bool contiguous : {true, false}) {
    TestStorage ts(/*pool_pages=*/4);
    TransposedTable t(census.schema(), &ts.pool);
    if (contiguous) {
      STATDB_ASSERT_OK(t.LoadFrom(census));
    } else {
      for (size_t r = 0; r < census.num_rows(); ++r) {
        STATDB_ASSERT_OK(t.Append(census.GetRow(r)));
      }
    }
    const IoStats io =
        ColdIo(&ts, [&] { STATDB_ASSERT_OK(t.ReadNumericColumn("INCOME")); });
    const uint64_t pages = t.ExportColumns()[6].pages.size();
    EXPECT_EQ(io.block_reads, pages);
    EXPECT_EQ(io.seeks, contiguous ? 1 : pages);
  }
}

// Ablation B (§2.4): a second scan of a column misses no
// page when the pool holds the column, and every page when it does not:
// LRU evicts each page before the scan comes back to it.
TEST(IoCountLayoutTest, SecondScanMissesAllOrNothing) {
  const Table census = Census();
  for (size_t pool_pages : {4, 16}) {
    TestStorage ts(pool_pages);
    TransposedTable t(census.schema(), &ts.pool);
    STATDB_ASSERT_OK(t.LoadFrom(census));
    const uint64_t pages = t.ExportColumns()[6].pages.size();
    STATDB_ASSERT_OK(t.ReadNumericColumn("INCOME"));
    const uint64_t misses = ts.pool.stats().misses;
    STATDB_ASSERT_OK(t.ReadNumericColumn("INCOME"));
    EXPECT_EQ(ts.pool.stats().misses - misses,
              pool_pages >= pages ? 0 : pages);
  }
}

// E5 (§4.2): under incremental maintenance a 100-cell update keeps the
// cached moments current: asking them again reads no page of the
// updated column, and no rule rebuilds.
TEST_F(IoCountTest, IncrementalAnswersReadNoPageOfTheUpdatedColumn) {
  Load(MakeStream(20'000), kSmallDiskPool, MaintenancePolicy::kIncremental);
  const std::vector<std::string> fns = {"count", "mean", "variance", "min",
                                        "max"};
  auto ask = [&] {
    return IoOf(disk_, [&] {
      for (const std::string& fn : fns) {
        STATDB_ASSERT_OK(db_->Query("v", fn, "X"));
      }
    });
  };
  ask();
  UpdateSpec spec;
  // Rows 100..199 hold neither extreme of X.
  spec.predicate =
      And(Ge(Col("ID"), Lit(int64_t{100})), Lt(Col("ID"), Lit(int64_t{200})));
  spec.column = "X";
  spec.value = Add(Col("X"), Lit(1.0));
  Result<uint64_t> changed = db_->Update("v", spec);
  STATDB_ASSERT_OK(changed);
  EXPECT_EQ(*changed, 100u);
  // Counted on X's pages: with the audit after each update on (audit
  // builds), the audit's reads evict the Summary-DB tree page, and the
  // first probe reads it back.
  EXPECT_EQ(ColumnReads(1, [&] { ask(); }), 0u);
  const ViewTrafficStats* traffic = db_->GetTrafficStats("v").value();
  EXPECT_EQ(traffic->computed, fns.size());
  EXPECT_GT(traffic->maintainer_applies, 0u);
  EXPECT_EQ(traffic->maintainer_rebuilds, 0u);
}

// E22 (§4.2): the holistic functions read one order state per column.
// Rounds of uncached median, quantile, trimmed-mean and histogram
// requests on an unchanged column read it once, to build the state; a
// 100-cell update queues into the state, and the next quantile merges it
// without reading a page of the column.
TEST_F(IoCountTest, HolisticRoundsReadTheColumnOnce) {
  Load(MakeStream(20'000));
  const uint64_t pages = ColumnPages(db_.get(), "v", 1);
  constexpr int kRounds = 3;
  const uint64_t reads = ColumnReads(1, [&] {
    for (int r = 0; r < kRounds; ++r) {
      for (const char* fn :
           {"median", "quantile", "trimmed_mean", "histogram"}) {
        FunctionParams p;
        p.Set("p", 0.25 * (r + 1));
        STATDB_ASSERT_OK(db_->Query("v", fn, "X", p, no_cache_).status());
      }
    }
  });
  EXPECT_EQ(reads, pages);

  UpdateSpec spec;
  spec.predicate =
      And(Ge(Col("ID"), Lit(int64_t{100})), Lt(Col("ID"), Lit(int64_t{200})));
  spec.column = "X";
  spec.value = Add(Col("X"), Lit(1.0));
  STATDB_ASSERT_OK(db_->Update("v", spec));
  FunctionParams p90;
  p90.Set("p", 0.9);
  Result<QueryAnswer> answer = InternalError("not run");
  EXPECT_EQ(ColumnReads(1,
                        [&] {
                          answer = db_->Query("v", "quantile", "X", p90,
                                              no_cache_);
                        }),
            0u);
  STATDB_ASSERT_OK(answer);
  std::vector<double> column =
      db_->GetView("v").value()->ReadNumericColumn("X").value();
  EXPECT_EQ(answer->result,
            db_->management_db().functions().Compute("quantile", column, p90)
                .value());
}

// E8 (§2.3): materializing a concrete view reads the raw table's tape
// blocks once; using the view reads no tape; re-deriving it from tape
// reads them all again.
TEST_F(IoCountTest, ConcreteViewReadsTheTapeOnce) {
  Load(MakeStream(20'000));
  SimulatedDevice* tape = storage_->GetDevice("tape").value();
  BufferPool* tape_pool = storage_->GetPool("tape").value();
  ViewDefinition def;
  def.source = "raw";
  def.predicate = Ge(Col("ID"), Lit(int64_t{10}));
  STATDB_ASSERT_OK(tape_pool->Reset());
  const IoStats create = IoOf(tape, [&] {
    STATDB_ASSERT_OK(db_->CreateView("w", def, MaintenancePolicy::kInvalidate));
  });
  const IoStats use = IoOf(tape, [&] {
    for (const char* fn : {"mean", "median", "variance"}) {
      STATDB_ASSERT_OK(db_->Query("w", fn, "X", {}, no_cache_));
    }
  });
  STATDB_ASSERT_OK(tape_pool->Reset());
  const IoStats remat = IoOf(tape, [&] {
    STATDB_ASSERT_OK(db_->RematerializeFromTape("w"));
  });
  EXPECT_EQ(create.block_reads, tape->page_count());
  EXPECT_EQ(use.block_reads, 0u);
  EXPECT_EQ(remat.block_reads, tape->page_count());
}

// E10 (§3.2): rolling back two updates reads no tape and writes exactly
// the two column pages that hold the undone cells.
TEST_F(IoCountTest, RollbackWritesTheUndonePagesAndReadsNoTape) {
  Load(MakeStream(20'000));
  db_->set_audit_after_update(false);
  SimulatedDevice* tape = storage_->GetDevice("tape").value();
  BufferPool* pool = storage_->GetPool("disk").value();
  for (int64_t first : {0, 10'000}) {  // X pages 0 and 20
    UpdateSpec spec;
    spec.predicate =
        And(Ge(Col("ID"), Lit(first)), Lt(Col("ID"), Lit(first + 100)));
    spec.column = "X";
    spec.value = Mul(Col("X"), Lit(2.0));
    STATDB_ASSERT_OK(db_->Update("v", spec));
  }
  STATDB_ASSERT_OK(pool->FlushAll());
  IoStats disk;
  const IoStats tape_io = IoOf(tape, [&] {
    disk = IoOf(disk_, [&] {
      STATDB_ASSERT_OK(db_->Rollback("v", 0));
      STATDB_ASSERT_OK(pool->FlushAll());
    });
  });
  EXPECT_EQ(tape_io.block_reads, 0u);
  EXPECT_EQ(disk.block_writes, 2u);
}

// E11 (§5.1): after a seven-entry warm-up, inference answers the nine
// stream queries the cache misses without reading the disk; without it
// they are computed.
TEST_F(IoCountTest, InferenceAnswersWhatTheCacheMissesWithoutReading) {
  Load(MakeStream(20'000));
  for (const char* fn : {"sum", "count", "variance", "min", "max",
                         "quartiles", "histogram"}) {
    STATDB_ASSERT_OK(db_->Query("v", fn, "X"));
  }
  for (bool infer : {true, false}) {
    QueryOptions opts = no_cache_;
    opts.allow_inference = infer;
    opts.allow_estimates = false;
    std::map<AnswerSource, int> sources;
    const IoStats io = IoOf(disk_, [&] {
      for (const char* fn : {"mean", "stddev", "range", "median", "sum",
                             "count", "mean", "stddev", "median", "range",
                             "mean", "count"}) {
        Result<QueryAnswer> a = db_->Query("v", fn, "X", {}, opts);
        STATDB_ASSERT_OK(a);
        ++sources[a->source];
      }
    });
    EXPECT_EQ(sources[AnswerSource::kCacheHit], 3);
    EXPECT_EQ(sources[AnswerSource::kInferred], infer ? 9 : 0);
    EXPECT_EQ(sources[AnswerSource::kComputed], infer ? 0 : 9);
    if (infer) {
      EXPECT_EQ(io.block_reads, 0u);
    }
  }
}

// E12 (§3.2): the Summary Database's B+-tree answers a probe in tree-height
// page reads where a scan reads every page; keys led by the attribute put
// its twelve results on at most height + 1 pages.
TEST(IoCountSummaryIndexTest, ProbeReadsTreeHeightPages) {
  TestStorage ts(/*pool_pages=*/8);
  std::unique_ptr<SummaryDatabase> sdb =
      SummaryDatabase::Create(&ts.pool).value();
  for (int a = 1000; a < 1200; ++a) {
    for (int f = 0; f < 12; ++f) {
      STATDB_ASSERT_OK(sdb->Insert(
          SummaryKey::Of("fn" + std::to_string(f), "A" + std::to_string(a)),
          SummaryResult::Scalar(a + f), 0));
    }
  }
  const uint64_t height = uint64_t(sdb->index()->Height().value());
  const IoStats probe = ColdIo(&ts, [&] {
    STATDB_ASSERT_OK(sdb->Lookup(SummaryKey::Of("fn7", "A1013")));
  });
  const IoStats scan = ColdIo(&ts, [&] {
    STATDB_ASSERT_OK(sdb->index()->ScanRange(
        "", "", [](const std::string&, const std::string&) { return true; }));
  });
  const IoStats attribute = ColdIo(&ts, [&] {
    STATDB_ASSERT_OK(sdb->ForEachOnAttribute(
        "A1013", [](const SummaryEntry&) { return Status::OK(); }));
  });
  EXPECT_EQ(probe.block_reads, height);
  EXPECT_EQ(scan.block_reads, ts.device.page_count());
  EXPECT_LE(attribute.block_reads, height + 1);
}

// E15 (§2.3): counting the rows equal to one value scans every page of the
// column; through an attribute index it reads the tree's two levels and
// the one matching leaf.
TEST_F(IoCountTest, IndexProbeReadsTreeLevelsNotTheColumn) {
  Load(MakeStream(20'000));
  BufferPool* pool = storage_->GetPool("disk").value();
  auto count = [&](bool indexed) {
    EXPECT_TRUE(pool->Reset().ok());
    return IoOf(disk_, [&] {
      bool used = false;
      Result<uint64_t> n =
          db_->CountWhereEqual("v", "ID", Value::Int(777), &used);
      STATDB_ASSERT_OK(n);
      EXPECT_EQ(*n, 1u);
      EXPECT_EQ(used, indexed);
    });
  };
  EXPECT_EQ(count(false).block_reads, ColumnPages(db_.get(), "v", 0));
  STATDB_ASSERT_OK(db_->CreateAttributeIndex("v", "ID"));
  STATDB_ASSERT_OK(pool->FlushAll());
  EXPECT_EQ(count(true).block_reads, 2u + 1u);
}

}  // namespace
}  // namespace statdb
