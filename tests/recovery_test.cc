#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/db_auditor.h"
#include "common/checksum.h"
#include "core/dbms.h"
#include "fault/fault.h"
#include "fault/wal.h"
#include "gtest/gtest.h"
#include "relational/datagen.h"
#include "relational/expr.h"
#include "tests/test_util.h"

namespace statdb {
namespace {

// --- page checksums through the buffer pool --------------------------------

TEST(PageChecksumTest, PoolStampsOnWriteBackAndVerifiesOnFetch) {
  TestStorage ts(4);
  auto np = ts.pool.NewPage();
  STATDB_ASSERT_OK(np);
  PageId pid = np.value().first;
  Page* p = np.value().second;
  for (size_t i = 0; i < kPageSize; ++i) {
    p->data[i] = uint8_t(i * 31 + 7);
  }
  STATDB_ASSERT_OK(ts.pool.UnpinPage(pid, /*dirty=*/true));
  STATDB_ASSERT_OK(ts.pool.FlushAll());

  // The stored page carries the stamp, and it is the CRC of the data.
  Page raw;
  STATDB_ASSERT_OK(ts.device.ReadPage(pid, &raw));
  EXPECT_TRUE(raw.header.checksummed());
  EXPECT_EQ(raw.header.checksum, Crc32c(raw.data.data(), kPageSize));

  // Round trip: a cold fetch verifies and serves the same bytes.
  STATDB_ASSERT_OK(ts.pool.Reset());
  auto fetched = ts.pool.FetchPage(pid);
  STATDB_ASSERT_OK(fetched);
  EXPECT_EQ(fetched.value()->data, raw.data);
  STATDB_ASSERT_OK(ts.pool.UnpinPage(pid, false));
  EXPECT_EQ(ts.pool.stats().checksum_failures, 0u);
}

TEST(PageChecksumTest, EveryInjectedBitFlipIsDetected) {
  FaultInjectingDevice dev("flip", DeviceCostModel::Memory());
  BufferPool pool(&dev, 4);
  auto np = pool.NewPage();
  STATDB_ASSERT_OK(np);
  PageId pid = np.value().first;
  Page original;
  for (size_t i = 0; i < kPageSize; ++i) {
    original.data[i] = uint8_t(i * 131 + 89);
  }
  np.value().second->data = original.data;
  STATDB_ASSERT_OK(pool.UnpinPage(pid, /*dirty=*/true));
  STATDB_ASSERT_OK(pool.FlushAll());
  // Drop the cached frame so every fetch below is a cold (verifying) read.
  STATDB_ASSERT_OK(pool.Reset());

  // Flip every bit of the data area in turn; the cold fetch after each
  // flip must fail with DATA_LOSS — 100% detection, not sampling.
  const uint64_t kBits = kPageSize * 8;
  for (uint64_t bit = 0; bit < kBits; ++bit) {
    FaultSchedule corrupt;
    corrupt.events.push_back({FaultKind::kBitFlip, /*on_write=*/false,
                              dev.read_count() + 1, uint32_t(bit)});
    dev.set_schedule(corrupt);
    auto fetched = pool.FetchPage(pid);
    ASSERT_FALSE(fetched.ok()) << "bit " << bit << " went undetected";
    ASSERT_EQ(fetched.status().code(), StatusCode::kDataLoss) << "bit " << bit;
    // Flip the same bit back (another scheduled flip on a direct device
    // read) so the next iteration starts from a clean page again.
    FaultSchedule restore;
    restore.events.push_back({FaultKind::kBitFlip, /*on_write=*/false,
                              dev.read_count() + 1, uint32_t(bit)});
    dev.set_schedule(restore);
    Page scratch;
    STATDB_ASSERT_OK(dev.ReadPage(pid, &scratch));
  }
  dev.set_schedule({});
  EXPECT_EQ(pool.stats().checksum_failures, kBits);
  EXPECT_EQ(dev.counters().bit_flips, 2 * kBits);

  // After the last restore the page is intact again.
  auto fetched = pool.FetchPage(pid);
  STATDB_ASSERT_OK(fetched);
  EXPECT_EQ(fetched.value()->data, original.data);
  STATDB_ASSERT_OK(pool.UnpinPage(pid, false));
}

// --- redo log unit coverage -------------------------------------------------

WalRecord MakeRecord(uint64_t lsn, std::string hint, size_t npages,
                     size_t manifest_len) {
  WalRecord r;
  r.lsn = lsn;
  r.attr_hint = std::move(hint);
  for (size_t i = 0; i < npages; ++i) {
    Page p;
    p.data.fill(uint8_t(lsn * 16 + i));
    p.header.checksum = Crc32c(p.data.data(), kPageSize);
    p.header.flags = PageHeader::kChecksummed;
    p.header.lsn = lsn;
    r.pages.emplace_back(PageId(i), p);
  }
  r.manifest.assign(manifest_len, uint8_t(0xC0 + lsn));
  return r;
}

void CorruptStreamByte(SimulatedDevice* dev, uint64_t offset) {
  PageId pid = offset / kPageSize;
  Page page;
  STATDB_ASSERT_OK(dev->ReadPage(pid, &page));
  page.data[offset % kPageSize] ^= 0xFF;
  STATDB_ASSERT_OK(dev->WritePage(pid, page));
}

TEST(RedoLogTest, OpenOnFreshDeviceFindsNothing) {
  SimulatedDevice dev("wal", DeviceCostModel::Memory());
  RedoLog log(&dev);
  auto scan = log.Open();
  STATDB_ASSERT_OK(scan);
  EXPECT_TRUE(scan.value().records.empty());
  EXPECT_FALSE(scan.value().torn_tail);
  EXPECT_EQ(log.last_lsn(), 0u);
  EXPECT_EQ(log.append_offset(), 0u);
}

TEST(RedoLogTest, AppendThenReopenRoundTripsEveryField) {
  SimulatedDevice dev("wal", DeviceCostModel::Memory());
  RedoLog log(&dev);
  STATDB_ASSERT_OK(log.Open());
  std::vector<WalRecord> written;
  written.push_back(MakeRecord(1, "INCOME", 3, 200));
  written.push_back(MakeRecord(2, "", 1, 5000));
  written.push_back(MakeRecord(3, "AGE", 0, 0));
  for (const WalRecord& r : written) STATDB_ASSERT_OK(log.Append(r));
  EXPECT_EQ(log.last_lsn(), 3u);
  EXPECT_EQ(log.stats().records_appended, 3u);
  EXPECT_GT(log.stats().bytes_appended, 0u);

  RedoLog reopened(&dev);
  auto scan = reopened.Open();
  STATDB_ASSERT_OK(scan);
  EXPECT_FALSE(scan.value().torn_tail);
  ASSERT_EQ(scan.value().records.size(), written.size());
  for (size_t i = 0; i < written.size(); ++i) {
    const WalRecord& got = scan.value().records[i];
    const WalRecord& want = written[i];
    EXPECT_EQ(got.lsn, want.lsn);
    EXPECT_EQ(got.attr_hint, want.attr_hint);
    EXPECT_EQ(got.manifest, want.manifest);
    ASSERT_EQ(got.pages.size(), want.pages.size());
    for (size_t j = 0; j < want.pages.size(); ++j) {
      EXPECT_EQ(got.pages[j].first, want.pages[j].first);
      EXPECT_EQ(got.pages[j].second.data, want.pages[j].second.data);
      EXPECT_EQ(got.pages[j].second.header.checksum,
                want.pages[j].second.header.checksum);
      EXPECT_EQ(got.pages[j].second.header.lsn, want.pages[j].second.header.lsn);
    }
  }
  EXPECT_EQ(reopened.last_lsn(), 3u);
  EXPECT_EQ(reopened.append_offset(), log.append_offset());
  EXPECT_EQ(reopened.stats().records_recovered, 3u);
}

TEST(RedoLogTest, TornTailIsDiscardedAndHintSurvives) {
  SimulatedDevice dev("wal", DeviceCostModel::Memory());
  RedoLog log(&dev);
  STATDB_ASSERT_OK(log.Open());
  STATDB_ASSERT_OK(log.Append(MakeRecord(1, "", 1, 100)));
  STATDB_ASSERT_OK(log.Append(MakeRecord(2, "", 1, 100)));
  STATDB_ASSERT_OK(log.Append(MakeRecord(3, "INCOME", 2, 300)));
  const uint64_t end = log.append_offset();
  // Zap a byte in the trailing CRC of record 3: the record parses up to
  // its frame check and is then rejected as torn.
  CorruptStreamByte(&dev, end - 2);

  RedoLog reopened(&dev);
  auto scan = reopened.Open();
  STATDB_ASSERT_OK(scan);
  ASSERT_EQ(scan.value().records.size(), 2u);
  EXPECT_TRUE(scan.value().torn_tail);
  EXPECT_EQ(scan.value().torn_attr_hint, "INCOME");
  EXPECT_EQ(reopened.last_lsn(), 2u);
  EXPECT_GT(reopened.stats().torn_tail_bytes, 0u);

  // The next append overwrites the torn tail; the record is recoverable.
  STATDB_ASSERT_OK(reopened.Append(MakeRecord(3, "INCOME", 2, 300)));
  RedoLog again(&dev);
  auto rescan = again.Open();
  STATDB_ASSERT_OK(rescan);
  ASSERT_EQ(rescan.value().records.size(), 3u);
  EXPECT_EQ(rescan.value().records[2].lsn, 3u);
  EXPECT_EQ(rescan.value().records[2].attr_hint, "INCOME");
  EXPECT_FALSE(rescan.value().torn_tail);
  EXPECT_EQ(again.last_lsn(), 3u);
}

TEST(RedoLogTest, TornTailWithLostPrefixYieldsEmptyHint) {
  SimulatedDevice dev("wal", DeviceCostModel::Memory());
  RedoLog log(&dev);
  STATDB_ASSERT_OK(log.Open());
  STATDB_ASSERT_OK(log.Append(MakeRecord(1, "", 1, 100)));
  const uint64_t start = log.append_offset();
  STATDB_ASSERT_OK(log.Append(MakeRecord(2, "INCOME", 1, 100)));
  // Zap the record magic: even the hint prefix is unreadable.
  CorruptStreamByte(&dev, start + 4);

  RedoLog reopened(&dev);
  auto scan = reopened.Open();
  STATDB_ASSERT_OK(scan);
  ASSERT_EQ(scan.value().records.size(), 1u);
  EXPECT_TRUE(scan.value().torn_tail);
  EXPECT_EQ(scan.value().torn_attr_hint, "");
  EXPECT_EQ(reopened.last_lsn(), 1u);
}

// --- end-to-end crash & recovery --------------------------------------------

class RecoveryE2ETest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage_ = std::make_unique<StorageManager>();
    STATDB_ASSERT_OK(
        storage_->AddDevice("tape", DeviceCostModel::Tape(), 256));
    auto disk = std::make_unique<FaultInjectingDevice>(
        "disk", DeviceCostModel::Disk());
    disk_ = disk.get();
    STATDB_ASSERT_OK(storage_->AdoptDevice("disk", std::move(disk), 1024));
    auto wal = std::make_unique<FaultInjectingDevice>(
        "wal", DeviceCostModel::Disk());
    wal_ = wal.get();
    STATDB_ASSERT_OK(storage_->AdoptDevice("wal", std::move(wal), 8));

    CensusOptions opts;
    opts.rows = 400;
    Rng rng(77);
    auto data = GenerateCensusMicrodata(opts, &rng);
    STATDB_ASSERT_OK(data);
    raw_ = std::move(data).value();
  }

  std::unique_ptr<StatisticalDbms> OpenDbms() {
    auto db = std::make_unique<StatisticalDbms>(storage_.get());
    EXPECT_TRUE(db->EnableDurability("wal").ok());
    return db;
  }

  Status Populate(StatisticalDbms* db) {
    STATDB_RETURN_IF_ERROR(db->LoadRawDataSet("census", raw_, "synthetic"));
    ViewDefinition def;
    def.source = "census";
    STATDB_RETURN_IF_ERROR(
        db->CreateView("v", def, MaintenancePolicy::kIncremental).status());
    return Status::OK();
  }

  static UpdateSpec DoubleYoungIncomes() {
    UpdateSpec spec;
    spec.predicate = Lt(Col("AGE"), Lit(int64_t{30}));
    spec.column = "INCOME";
    spec.value = Mul(Col("INCOME"), Lit(2.0));
    spec.description = "double incomes of the young";
    return spec;
  }

  // Crash: the process is gone (pools will be discarded by Recover); the
  // devices lose power and are then "rebooted" with their platters intact.
  void CrashAndReboot() {
    disk_->CutPower();
    wal_->CutPower();
    disk_->ClearFaults();
    wal_->ClearFaults();
  }

  std::unique_ptr<StorageManager> storage_;
  FaultInjectingDevice* disk_ = nullptr;
  FaultInjectingDevice* wal_ = nullptr;
  Table raw_;
};

TEST_F(RecoveryE2ETest, CleanCrashRecoversEveryCommittedAnswer) {
  SummaryResult mean_after, median_after;
  {
    auto db = OpenDbms();
    STATDB_ASSERT_OK(Populate(db.get()));
    auto q0 = db->Query("v", "median", "INCOME");
    STATDB_ASSERT_OK(q0);
    auto updated = db->Update("v", DoubleYoungIncomes());
    STATDB_ASSERT_OK(updated);
    EXPECT_GT(updated.value(), 0u);
    auto q1 = db->Query("v", "mean", "INCOME");
    STATDB_ASSERT_OK(q1);
    mean_after = q1.value().result;
    auto q2 = db->Query("v", "median", "INCOME");
    STATDB_ASSERT_OK(q2);
    median_after = q2.value().result;
  }
  CrashAndReboot();

  auto db2 = OpenDbms();
  STATDB_ASSERT_OK(db2->Recover());
  EXPECT_EQ(db2->recoveries(), 1u);
  std::string report;
  STATDB_ASSERT_OK(FsckDatabase(db2.get(), &report));

  // The committed cached answers come back from the Summary Database.
  auto q1 = db2->Query("v", "mean", "INCOME");
  STATDB_ASSERT_OK(q1);
  EXPECT_EQ(q1.value().source, AnswerSource::kCacheHit);
  EXPECT_TRUE(q1.value().result == mean_after);
  auto q2 = db2->Query("v", "median", "INCOME");
  STATDB_ASSERT_OK(q2);
  EXPECT_TRUE(q2.value().result == median_after);

  // And a from-scratch recomputation over the recovered pages agrees —
  // the data, not just the cache, survived.
  QueryOptions nocache;
  nocache.cache_result = false;
  auto fresh = db2->QueryParallel("v", "mean", "INCOME", {}, nocache);
  STATDB_ASSERT_OK(fresh);
  EXPECT_TRUE(fresh.value().result == mean_after);
}

TEST_F(RecoveryE2ETest, EveryCachingEntryPointCommitsItsSummaryInsert) {
  auto db = OpenDbms();
  STATDB_ASSERT_OK(Populate(db.get()));
  // Each call computes and caches a fresh key; the insert dirties a
  // summary page, which the query's commit tail must log.
  std::vector<std::pair<std::string, std::function<Status()>>> calls = {
      {"Query", [&] { return db->Query("v", "mean", "INCOME").status(); }},
      {"QueryParallel",
       [&] {
         return db->QueryParallel("v", "max", "INCOME", {}, {}, 2).status();
       }},
      {"QueryMany",
       [&] {
         return db->QueryMany("v", {{"min", "AGE", {}}}, {}, 2).status();
       }},
      {"QueryBivariate",
       [&] {
         return db->QueryBivariate("v", "covariance", "AGE", "INCOME")
             .status();
       }},
      {"QueryBivariateParallel",
       [&] {
         return db->QueryBivariateParallel("v", "correlation", "AGE",
                                           "INCOME", {}, 2)
             .status();
       }},
      {"QueryGroupCompare",
       [&] {
         return db->QueryGroupCompare("v", "INCOME", "SEX", 0, 1).status();
       }},
  };
  for (const auto& [name, call] : calls) {
    const uint64_t before = db->last_committed_lsn();
    STATDB_ASSERT_OK(call());
    EXPECT_GT(db->last_committed_lsn(), before) << name;
  }
}

TEST_F(RecoveryE2ETest, RecoverTwiceEqualsRecoverOnce) {
  {
    auto db = OpenDbms();
    STATDB_ASSERT_OK(Populate(db.get()));
    STATDB_ASSERT_OK(db->Query("v", "mean", "INCOME"));
    STATDB_ASSERT_OK(db->Query("v", "min", "AGE"));
  }
  CrashAndReboot();

  auto db2 = OpenDbms();
  STATDB_ASSERT_OK(db2->Recover());
  auto first_mean = db2->Query("v", "mean", "INCOME");
  STATDB_ASSERT_OK(first_mean);
  const uint64_t lsn_after_first = db2->last_committed_lsn();

  STATDB_ASSERT_OK(db2->Recover());
  EXPECT_EQ(db2->recoveries(), 2u);
  std::string report;
  STATDB_ASSERT_OK(FsckDatabase(db2.get(), &report));
  auto second_mean = db2->Query("v", "mean", "INCOME");
  STATDB_ASSERT_OK(second_mean);
  EXPECT_TRUE(second_mean.value().result == first_mean.value().result);
  auto min_age = db2->Query("v", "min", "AGE");
  STATDB_ASSERT_OK(min_age);
  EXPECT_EQ(min_age.value().source, AnswerSource::kCacheHit);
  // A clean log has no torn tail, so re-recovery appends nothing new
  // beyond what the first pass (and its queries) committed.
  EXPECT_GE(db2->last_committed_lsn(), lsn_after_first);
}

TEST_F(RecoveryE2ETest, TornWalTailInvalidatesTheHintedAttribute) {
  {
    auto db = OpenDbms();
    STATDB_ASSERT_OK(Populate(db.get()));
    STATDB_ASSERT_OK(db->Query("v", "mean", "INCOME"));
    STATDB_ASSERT_OK(db->Query("v", "mean", "AGE"));

    // Power dies on the second WAL page write of the update's commit
    // record: the hint (early in the record) lands, the tail is torn.
    FaultSchedule cut;
    cut.events.push_back({FaultKind::kPowerCut, /*on_write=*/true,
                          wal_->write_count() + 2, 0});
    wal_->set_schedule(cut);
    auto updated = db->Update("v", DoubleYoungIncomes());
    EXPECT_FALSE(updated.ok());
    EXPECT_TRUE(db->degraded());
    // Mutations now fail fast; reads still work.
    EXPECT_EQ(db->Update("v", DoubleYoungIncomes()).status().code(),
              StatusCode::kFailedPrecondition);
    STATDB_ASSERT_OK(db->Query("v", "mean", "AGE"));
  }
  CrashAndReboot();

  auto db2 = OpenDbms();
  STATDB_ASSERT_OK(db2->Recover());
  std::string report;
  STATDB_ASSERT_OK(FsckDatabase(db2.get(), &report));

  // §4.3 fallback: every cached summary on the hinted attribute is
  // stale, so the query recomputes; the untouched attribute still hits.
  auto income = db2->Query("v", "mean", "INCOME");
  STATDB_ASSERT_OK(income);
  EXPECT_EQ(income.value().source, AnswerSource::kComputed);
  auto age = db2->Query("v", "mean", "AGE");
  STATDB_ASSERT_OK(age);
  EXPECT_EQ(age.value().source, AnswerSource::kCacheHit);

  // The torn (uncommitted) update must NOT be visible: the recovered
  // mean equals the pre-update mean, recomputed from the pages.
  EXPECT_TRUE(db2->redo_log()->stats().torn_tail_bytes > 0 ||
              db2->recoveries() == 1u);
}

TEST_F(RecoveryE2ETest, UncommittedUpdateIsInvisibleAfterRecovery) {
  SummaryResult mean_before;
  {
    auto db = OpenDbms();
    STATDB_ASSERT_OK(Populate(db.get()));
    auto q = db->Query("v", "mean", "INCOME");
    STATDB_ASSERT_OK(q);
    mean_before = q.value().result;
    // The WAL device dies on the very first page write of the commit
    // record: nothing of the update reaches the log, and no-steal keeps
    // its dirty pages off the platter.
    FaultSchedule cut;
    cut.events.push_back({FaultKind::kPowerCut, /*on_write=*/true,
                          wal_->write_count() + 1, 0});
    wal_->set_schedule(cut);
    EXPECT_FALSE(db->Update("v", DoubleYoungIncomes()).ok());
    EXPECT_TRUE(db->degraded());
  }
  CrashAndReboot();

  auto db2 = OpenDbms();
  STATDB_ASSERT_OK(db2->Recover());
  std::string report;
  STATDB_ASSERT_OK(FsckDatabase(db2.get(), &report));
  QueryOptions nocache;
  nocache.cache_result = false;
  auto q = db2->Query("v", "mean", "INCOME", {}, nocache);
  STATDB_ASSERT_OK(q);
  EXPECT_TRUE(q.value().result == mean_before)
      << "uncommitted update leaked to the platter";
}

TEST_F(RecoveryE2ETest, PermanentWalFailureDegradesButServesReads) {
  auto db = OpenDbms();
  STATDB_ASSERT_OK(Populate(db.get()));
  STATDB_ASSERT_OK(db->Query("v", "mean", "INCOME"));

  FaultSchedule death;
  death.events.push_back({FaultKind::kPermanentFailure, /*on_write=*/true,
                          wal_->write_count() + 1, 0});
  wal_->set_schedule(death);
  EXPECT_FALSE(db->Update("v", DoubleYoungIncomes()).ok());
  EXPECT_TRUE(db->degraded());
  EXPECT_FALSE(db->degraded_reason().empty());

  // Every mutating entry point is rejected without touching the device.
  // (The definition must differ from "v": an identical one takes the
  // §2.3 reuse path, which mutates nothing and is legal while degraded.)
  ViewDefinition def;
  def.source = "census";
  def.projection = {"AGE", "INCOME"};
  EXPECT_EQ(db->CreateView("v2", def, MaintenancePolicy::kInvalidate)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(db->DropView("v").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(db->Rollback("v", 0).code(), StatusCode::kFailedPrecondition);

  // Queries keep answering.
  STATDB_ASSERT_OK(db->Query("v", "mean", "INCOME"));
  STATDB_ASSERT_OK(db->Query("v", "max", "AGE"));
}

TEST_F(RecoveryE2ETest, TransientFaultsAreAbsorbedByBoundedRetries) {
  // A burst of transient failures across the first disk I/Os: the buffer
  // pool's bounded retry rides them out invisibly.
  FaultSchedule flaky;
  for (uint64_t n = 1; n <= 6; ++n) {
    flaky.events.push_back(
        {FaultKind::kTransientError, /*on_write=*/(n % 2 == 0), n, 0});
  }
  disk_->set_schedule(flaky);

  auto db = OpenDbms();
  STATDB_ASSERT_OK(Populate(db.get()));
  auto q = db->Query("v", "mean", "INCOME");
  STATDB_ASSERT_OK(q);
  EXPECT_FALSE(db->degraded());

  EXPECT_GT(disk_->counters().transient_errors, 0u);
  auto pool = storage_->GetPool("disk");
  STATDB_ASSERT_OK(pool);
  EXPECT_GT(pool.value()->stats().retries, 0u);
  EXPECT_GT(pool.value()->stats().backoff_ms, 0.0);

  // The redo log has its own retry loop for its direct device writes.
  FaultSchedule wal_flaky;
  wal_flaky.events.push_back({FaultKind::kTransientError, /*on_write=*/true,
                              wal_->write_count() + 1, 0});
  wal_->set_schedule(wal_flaky);
  STATDB_ASSERT_OK(db->Update("v", DoubleYoungIncomes()).status());
  EXPECT_FALSE(db->degraded());
  EXPECT_GT(wal_->counters().transient_errors, 0u);
}

}  // namespace
}  // namespace statdb
