#include "check/check.h"

#include <cmath>
#include <cstring>

#include "check/check_access.h"
#include "check/db_auditor.h"
#include "core/dbms.h"
#include "gtest/gtest.h"
#include "relational/datagen.h"
#include "stats/correlation.h"
#include "storage/slotted_page.h"
#include "tests/test_util.h"

namespace statdb {
namespace {

// --- buffer pool ------------------------------------------------------------

TEST(CheckBufferPoolTest, CleanPoolPasses) {
  TestStorage ts(8);
  for (int i = 0; i < 4; ++i) {
    auto page = ts.pool.NewPage();
    ASSERT_TRUE(page.ok());
    STATDB_ASSERT_OK(ts.pool.UnpinPage(page->first, /*dirty=*/true));
  }
  CheckReport report;
  STATDB_ASSERT_OK(CheckBufferPool(ts.pool, &report));
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(CheckBufferPoolTest, DetectsPinLeakAtQuiescence) {
  TestStorage ts(8);
  auto page = ts.pool.NewPage();
  ASSERT_TRUE(page.ok());  // deliberately not unpinned

  CheckReport report;
  STATDB_ASSERT_OK(CheckBufferPool(ts.pool, &report));
  EXPECT_TRUE(report.HasError("pin-leak")) << report.ToString();

  // The same state is legal while an operation is in flight.
  CheckReport mid_op;
  STATDB_ASSERT_OK(
      CheckBufferPool(ts.pool, &mid_op, {.expect_quiescent = false}));
  EXPECT_TRUE(mid_op.ok()) << mid_op.ToString();

  STATDB_ASSERT_OK(ts.pool.UnpinPage(page->first, /*dirty=*/false));
}

// --- B+-tree ----------------------------------------------------------------

class CheckBTreeTest : public ::testing::Test {
 protected:
  CheckBTreeTest() : ts_(256) {
    auto tree = BPlusTree::Create(&ts_.pool);
    EXPECT_TRUE(tree.ok());
    tree_ = std::move(tree).value();
  }

  /// Directly rewrites bytes of a node page through the pool.
  void ScribblePage(PageId pid, size_t offset, const void* bytes,
                    size_t len) {
    auto page = ts_.pool.FetchPage(pid);
    ASSERT_TRUE(page.ok());
    std::memcpy((*page)->bytes() + offset, bytes, len);
    STATDB_ASSERT_OK(ts_.pool.UnpinPage(pid, /*dirty=*/true));
  }

  TestStorage ts_;
  std::unique_ptr<BPlusTree> tree_;
};

TEST_F(CheckBTreeTest, CleanTreePasses) {
  for (int i = 0; i < 500; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%05d", i);
    STATDB_ASSERT_OK(tree_->Put(key, "value" + std::to_string(i)));
  }
  for (int i = 0; i < 100; ++i) {  // underfull nodes are legal
    char key[16];
    std::snprintf(key, sizeof(key), "key%05d", i * 3);
    STATDB_ASSERT_OK(tree_->Delete(key));
  }
  CheckReport report;
  STATDB_ASSERT_OK(CheckBPlusTree(*tree_, &report));
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(CheckBTreeTest, DetectsCorruptNodeHeader) {
  STATDB_ASSERT_OK(tree_->Put("a", "1"));
  uint32_t bogus_len = 0xFFFFFFFF;
  ScribblePage(tree_->root_id(), 0, &bogus_len, sizeof(bogus_len));

  CheckReport report;
  STATDB_ASSERT_OK(CheckBPlusTree(*tree_, &report));
  EXPECT_TRUE(report.HasError("node-parse")) << report.ToString();
}

TEST_F(CheckBTreeTest, DetectsBrokenLeafChain) {
  STATDB_ASSERT_OK(tree_->Put("a", "1"));
  STATDB_ASSERT_OK(tree_->Put("b", "2"));
  // Root is a single leaf; its serialized `next` field lives after the
  // u32 length, u8 is_leaf and u32 count. Point it at a bogus sibling.
  PageId bogus_next = 3;
  ScribblePage(tree_->root_id(), 4 + 1 + 4, &bogus_next,
               sizeof(bogus_next));

  CheckReport report;
  STATDB_ASSERT_OK(CheckBPlusTree(*tree_, &report));
  EXPECT_TRUE(report.HasError("leaf-chain")) << report.ToString();
}

// --- slotted page -----------------------------------------------------------

class CheckSlottedPageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sp_.Init();
    const uint8_t first[] = "first-record";
    const uint8_t second[] = "second-record";
    auto s0 = sp_.Insert(first, sizeof(first));
    auto s1 = sp_.Insert(second, sizeof(second));
    ASSERT_TRUE(s0.ok() && s1.ok());
  }

  void SetSlotOffset(uint16_t slot, uint16_t offset) {
    std::memcpy(page_.bytes() + 4 + slot * 4, &offset, sizeof(offset));
  }

  Page page_;
  SlottedPage sp_{&page_};
};

TEST_F(CheckSlottedPageTest, CleanPagePasses) {
  CheckReport report;
  STATDB_ASSERT_OK(CheckSlottedPage(page_, &report));
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(CheckSlottedPageTest, DetectsOverlappingCells) {
  // Make slot 0 start inside slot 1's record.
  auto r1 = sp_.Get(1);
  ASSERT_TRUE(r1.ok());
  uint16_t r1_off =
      static_cast<uint16_t>(r1->first - page_.bytes());
  SetSlotOffset(0, static_cast<uint16_t>(r1_off + 2));

  CheckReport report;
  STATDB_ASSERT_OK(CheckSlottedPage(page_, &report));
  EXPECT_TRUE(report.HasError("cell-overlap")) << report.ToString();
}

TEST_F(CheckSlottedPageTest, DetectsBadFreeSpaceAccounting) {
  // Claim free space extending into the live records.
  uint16_t bogus_free_end = kPageSize - 4;
  std::memcpy(page_.bytes() + 2, &bogus_free_end, sizeof(bogus_free_end));

  CheckReport report;
  STATDB_ASSERT_OK(CheckSlottedPage(page_, &report));
  EXPECT_TRUE(report.HasError("free-space-accounting")) << report.ToString();
}

TEST_F(CheckSlottedPageTest, DetectsOutOfBoundsCell) {
  SetSlotOffset(0, kPageSize - 2);  // record would run past the page end

  CheckReport report;
  STATDB_ASSERT_OK(CheckSlottedPage(page_, &report));
  EXPECT_TRUE(report.HasError("cell-bounds")) << report.ToString();
}

// --- column files -----------------------------------------------------------

TEST(CheckColumnFileTest, CleanFilePassesAndCorruptCountCaught) {
  TestStorage ts(16);
  ColumnFile file(&ts.pool);
  for (int i = 0; i < 700; ++i) {  // spans two pages
    STATDB_ASSERT_OK(file.Append(i % 7 == 0 ? std::nullopt
                                            : std::make_optional<int64_t>(i)));
  }
  CheckReport clean;
  STATDB_ASSERT_OK(CheckColumnFile(file, &clean));
  EXPECT_TRUE(clean.ok()) << clean.ToString();

  // Scribble the first page's cell-count header.
  PageId pid = CheckAccess::Pages(file)[0];
  auto page = ts.pool.FetchPage(pid);
  ASSERT_TRUE(page.ok());
  uint32_t bogus = 123;
  std::memcpy((*page)->bytes(), &bogus, sizeof(bogus));
  STATDB_ASSERT_OK(ts.pool.UnpinPage(pid, /*dirty=*/true));

  CheckReport report;
  STATDB_ASSERT_OK(CheckColumnFile(file, &report));
  EXPECT_TRUE(report.HasError("cell-count")) << report.ToString();
}

TEST(CheckRleTest, DetectsLengthDriftAndZeroRuns) {
  std::vector<RleRun> runs = {{1, 10, true}, {2, 0, true}, {3, 5, true}};
  CheckReport report;
  STATDB_ASSERT_OK(CheckRleRuns(runs, 20, &report));
  EXPECT_TRUE(report.HasError("zero-run")) << report.ToString();
  EXPECT_TRUE(report.HasError("length-sum")) << report.ToString();

  CheckReport clean;
  STATDB_ASSERT_OK(
      CheckRleRuns({{1, 10, true}, {2, 10, true}}, 20, &clean));
  EXPECT_TRUE(clean.ok()) << clean.ToString();

  // Mergeable adjacent runs are legal but non-canonical.
  CheckReport mergeable;
  STATDB_ASSERT_OK(
      CheckRleRuns({{4, 3, true}, {4, 2, true}}, 5, &mergeable));
  EXPECT_TRUE(mergeable.ok());
  EXPECT_EQ(mergeable.warning_count(), 1u) << mergeable.ToString();
}

TEST(CheckCompressedColumnTest, CleanFilePasses) {
  TestStorage ts(16);
  CompressedColumnFile file(&ts.pool);
  std::vector<std::optional<int64_t>> cells;
  for (int i = 0; i < 2000; ++i) {
    cells.push_back(i % 11 == 0 ? std::nullopt
                                : std::make_optional<int64_t>(i / 100));
  }
  STATDB_ASSERT_OK(file.Load(cells));
  CheckReport report;
  STATDB_ASSERT_OK(CheckCompressedColumnFile(file, &report));
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// --- summary database -------------------------------------------------------

class CheckSummaryDbTest : public ::testing::Test {
 protected:
  CheckSummaryDbTest() : ts_(4096) {
    auto db = SummaryDatabase::Create(&ts_.pool);
    EXPECT_TRUE(db.ok());
    db_ = std::move(db).value();
  }

  /// A result large enough to force continuation chunks.
  static SummaryResult BigVector() {
    return SummaryResult::Vector(std::vector<double>(400, 1.5));
  }

  static SummaryKey BivariateKey() {
    return SummaryKey{"correlation", {"INCOME", "AGE"}, ""};
  }

  TestStorage ts_;
  std::unique_ptr<SummaryDatabase> db_;
};

TEST_F(CheckSummaryDbTest, CleanDatabasePasses) {
  STATDB_ASSERT_OK(db_->Insert(SummaryKey::Of("mean", "INCOME"),
                               SummaryResult::Scalar(29933), 0));
  STATDB_ASSERT_OK(db_->Insert(SummaryKey::Of("quantiles", "INCOME"),
                               BigVector(), 0));
  STATDB_ASSERT_OK(
      db_->Insert(BivariateKey(), SummaryResult::Scalar(0.4), 0));
  CheckReport report;
  STATDB_ASSERT_OK(CheckSummaryDb(db_.get(), &report));
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(CheckSummaryDbTest, DetectsTruncatedContinuationChain) {
  SummaryKey key = SummaryKey::Of("quantiles", "INCOME");
  STATDB_ASSERT_OK(db_->Insert(key, BigVector(), 0));
  // Drop the middle chunk out from under the head record.
  std::string chunk_key =
      key.Encode() + SummaryDatabase::kChunkSep + std::string("000001");
  STATDB_ASSERT_OK(db_->index()->Delete(chunk_key));

  CheckReport report;
  STATDB_ASSERT_OK(CheckSummaryDb(db_.get(), &report));
  EXPECT_TRUE(report.HasError("chunk-missing")) << report.ToString();
}

TEST_F(CheckSummaryDbTest, DetectsOrphanedChunk) {
  STATDB_ASSERT_OK(db_->index()->Put(
      std::string("GHOST|mean|") + SummaryDatabase::kChunkSep + "000000",
      "junk"));
  CheckReport report;
  STATDB_ASSERT_OK(CheckSummaryDb(db_.get(), &report));
  EXPECT_TRUE(report.HasError("orphan-chunk")) << report.ToString();
}

TEST_F(CheckSummaryDbTest, ReportsChunkIndexOutOfRange) {
  SummaryKey key = SummaryKey::Of("quantiles", "INCOME");
  STATDB_ASSERT_OK(db_->Insert(key, BigVector(), 0));
  // 2^32 must not wrap onto chunk 0; past ULONG_MAX must not throw.
  for (const char* index : {"4294967296", "99999999999999999999999"}) {
    STATDB_ASSERT_OK(db_->index()->Put(
        key.Encode() + SummaryDatabase::kChunkSep + index, "junk"));
    CheckReport report;
    STATDB_ASSERT_OK(CheckSummaryDb(db_.get(), &report));
    EXPECT_TRUE(report.HasError("chunk-key")) << index << "\n"
                                              << report.ToString();
    STATDB_ASSERT_OK(db_->index()->Delete(
        key.Encode() + SummaryDatabase::kChunkSep + index));
  }
}

TEST_F(CheckSummaryDbTest, DetectsEntryCountDesync) {
  STATDB_ASSERT_OK(db_->Insert(SummaryKey::Of("mean", "INCOME"),
                               SummaryResult::Scalar(1), 0));
  db_->TestOnlyAdjustEntryCount(+1);
  CheckReport report;
  STATDB_ASSERT_OK(CheckSummaryDb(db_.get(), &report));
  EXPECT_TRUE(report.HasError("entry-count-drift")) << report.ToString();
  db_->TestOnlyAdjustEntryCount(-1);
}

TEST_F(CheckSummaryDbTest, DetectsDanglingReference) {
  STATDB_ASSERT_OK(db_->index()->Put(
      std::string("AGE") + SummaryDatabase::kRefSep + "GHOST|corr|", ""));
  CheckReport report;
  STATDB_ASSERT_OK(CheckSummaryDb(db_.get(), &report));
  EXPECT_TRUE(report.HasError("dangling-ref")) << report.ToString();
}

TEST_F(CheckSummaryDbTest, DetectsMissingReference) {
  SummaryKey key = BivariateKey();
  STATDB_ASSERT_OK(db_->Insert(key, SummaryResult::Scalar(0.4), 0));
  // Delete the reference record posted under the second attribute.
  STATDB_ASSERT_OK(db_->index()->Delete(
      std::string("AGE") + SummaryDatabase::kRefSep + key.Encode()));
  CheckReport report;
  STATDB_ASSERT_OK(CheckSummaryDb(db_.get(), &report));
  EXPECT_TRUE(report.HasError("ref-missing")) << report.ToString();
}

TEST_F(CheckSummaryDbTest, DetectsCorruptHeadRecord) {
  SummaryKey key = SummaryKey::Of("mean", "INCOME");
  STATDB_ASSERT_OK(db_->Insert(key, SummaryResult::Scalar(1), 0));
  STATDB_ASSERT_OK(db_->index()->Put(key.Encode(), "x"));  // truncated head
  CheckReport report;
  STATDB_ASSERT_OK(CheckSummaryDb(db_.get(), &report));
  EXPECT_TRUE(report.HasError("head-corrupt")) << report.ToString();
}

// --- result comparison ------------------------------------------------------

TEST(SummaryResultsApproxEqualTest, ToleranceAndKinds) {
  auto a = SummaryResult::Scalar(1.0);
  EXPECT_TRUE(
      SummaryResultsApproxEqual(a, SummaryResult::Scalar(1.0 + 1e-12),
                                1e-9, 1e-9));
  EXPECT_FALSE(SummaryResultsApproxEqual(a, SummaryResult::Scalar(1.01),
                                         1e-9, 1e-9));
  EXPECT_FALSE(SummaryResultsApproxEqual(
      a, SummaryResult::Vector({1.0}), 1e-9, 1e-9));
  // NaN agrees with NaN (e.g. correlation of a constant column).
  double nan = std::nan("");
  EXPECT_TRUE(SummaryResultsApproxEqual(SummaryResult::Scalar(nan),
                                        SummaryResult::Scalar(nan), 1e-9,
                                        1e-9));
  EXPECT_TRUE(SummaryResultsApproxEqual(
      SummaryResult::Vector({1, 2, 3}),
      SummaryResult::Vector({1, 2, 3 + 1e-12}), 1e-9, 1e-9));
  EXPECT_FALSE(SummaryResultsApproxEqual(
      SummaryResult::Vector({1, 2}), SummaryResult::Vector({1, 2, 3}),
      1e-9, 1e-9));
}

// --- differential oracle ----------------------------------------------------

class OracleTest : public ::testing::Test {
 protected:
  OracleTest() : ts_(4096), functions_(FunctionRegistry::WithBuiltins()) {
    auto db = SummaryDatabase::Create(&ts_.pool);
    EXPECT_TRUE(db.ok());
    db_ = std::move(db).value();
    data_ = {4, 8, 15, 16, 23, 42};
    oracle_.view_version = 0;
    oracle_.read_numeric =
        [this](const std::string& attr) -> Result<std::vector<double>> {
      if (attr == "INCOME") return data_;
      return NotFoundError("no column " + attr);
    };
  }

  SummaryResult TrueMean() {
    auto r = functions_.Compute("mean", data_, {});
    EXPECT_TRUE(r.ok());
    return std::move(r).value();
  }

  CheckReport Audit(const AuditOptions& options = {}) {
    CheckReport report;
    STATDB_EXPECT_OK(AuditSummaryAgainstView(db_.get(), functions_,
                                             oracle_, &report, options));
    return report;
  }

  TestStorage ts_;
  std::unique_ptr<SummaryDatabase> db_;
  FunctionRegistry functions_;
  std::vector<double> data_;
  ViewOracle oracle_;
};

TEST_F(OracleTest, CoherentCachePasses) {
  STATDB_ASSERT_OK(
      db_->Insert(SummaryKey::Of("mean", "INCOME"), TrueMean(), 0));
  CheckReport report = Audit();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(OracleTest, DetectsDriftedEntry) {
  STATDB_ASSERT_OK(db_->Insert(SummaryKey::Of("mean", "INCOME"),
                               SummaryResult::Scalar(999), 0));
  CheckReport report = Audit();
  EXPECT_TRUE(report.HasError("summary-drift")) << report.ToString();
}

TEST_F(OracleTest, StaleEntriesAreSkippedUnlessRequested) {
  SummaryKey key = SummaryKey::Of("mean", "INCOME");
  STATDB_ASSERT_OK(db_->Insert(key, SummaryResult::Scalar(999), 0));
  STATDB_ASSERT_OK(db_->MarkStale(key));
  EXPECT_TRUE(Audit().ok());  // declared drift is not silent drift
  CheckReport strict = Audit({.include_stale = true});
  EXPECT_TRUE(strict.HasError("summary-drift")) << strict.ToString();
}

TEST_F(OracleTest, FlagsEntryFromTheFuture) {
  STATDB_ASSERT_OK(
      db_->Insert(SummaryKey::Of("mean", "INCOME"), TrueMean(), 7));
  CheckReport report = Audit();
  EXPECT_TRUE(report.HasError("future-version")) << report.ToString();
}

TEST_F(OracleTest, UndecodableParamsAreReportedNotThrown) {
  for (const char* params : {"p=abc", "p=", "p=1e999", "p=0.5x"}) {
    STATDB_ASSERT_OK(db_->Insert(SummaryKey{"quantile", {"INCOME"}, params},
                                 SummaryResult::Scalar(15.5), 0));
  }
  CheckReport report = Audit();
  EXPECT_EQ(report.FindInvariant("params-corrupt").size(), 4u)
      << report.ToString();
}

TEST_F(OracleTest, UnknownFunctionIsInfoNotError) {
  STATDB_ASSERT_OK(db_->Insert(SummaryKey::Of("frobnicate", "INCOME"),
                               SummaryResult::Scalar(1), 0));
  CheckReport report = Audit();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_FALSE(report.FindInvariant("unverifiable").empty());
}

TEST_F(OracleTest, VerifiesBivariateCorrelation) {
  std::vector<double> other = {1, 2, 2, 3, 5, 8};
  oracle_.read_column =
      [this, other](const std::string& attr) -> Result<std::vector<Value>> {
    std::vector<Value> cells;
    const std::vector<double>& src = attr == "INCOME" ? data_ : other;
    cells.reserve(src.size());
    for (double v : src) cells.push_back(Value::Real(v));
    return cells;
  };
  auto r = PearsonR(data_, other);
  ASSERT_TRUE(r.ok());
  SummaryKey key{"correlation", {"INCOME", "AGE"}, ""};
  STATDB_ASSERT_OK(db_->Insert(key, SummaryResult::Scalar(*r), 0));
  EXPECT_TRUE(Audit().ok()) << Audit().ToString();

  STATDB_ASSERT_OK(db_->Refresh(key, SummaryResult::Scalar(*r + 0.5), 0));
  CheckReport drifted = Audit();
  EXPECT_TRUE(drifted.HasError("summary-drift")) << drifted.ToString();
}

// --- whole-database auditor -------------------------------------------------

class DbAuditorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage_ = MakeTapeDiskStorage();
    dbms_ = std::make_unique<StatisticalDbms>(storage_.get());
    CensusOptions opts;
    opts.rows = 500;
    Rng rng(17);
    auto data = GenerateCensusMicrodata(opts, &rng);
    ASSERT_TRUE(data.ok());
    STATDB_ASSERT_OK(dbms_->LoadRawDataSet("census", *data));
    ViewDefinition def;
    def.source = "census";
    auto vc = dbms_->CreateView("v", def, MaintenancePolicy::kIncremental);
    ASSERT_TRUE(vc.ok());
  }

  std::unique_ptr<StorageManager> storage_;
  std::unique_ptr<StatisticalDbms> dbms_;
};

TEST_F(DbAuditorTest, FsckPassesOnHealthyDatabase) {
  STATDB_ASSERT_OK(dbms_->Query("v", "mean", "INCOME").status());
  STATDB_ASSERT_OK(dbms_->Query("v", "median", "AGE").status());
  STATDB_ASSERT_OK(
      dbms_->QueryBivariate("v", "correlation", "INCOME", "AGE").status());
  std::string text;
  STATDB_ASSERT_OK(FsckDatabase(dbms_.get(), &text));
  EXPECT_NE(text.find("PASS"), std::string::npos) << text;
}

TEST_F(DbAuditorTest, FsckCatchesInducedSummaryDrift) {
  STATDB_ASSERT_OK(dbms_->Query("v", "mean", "INCOME").status());
  // Simulate a buggy maintenance rule writing a wrong refreshed value.
  auto summary = dbms_->GetSummaryDb("v");
  ASSERT_TRUE(summary.ok());
  STATDB_ASSERT_OK((*summary)->Refresh(SummaryKey::Of("mean", "INCOME"),
                                       SummaryResult::Scalar(-1), 0));
  std::string text;
  Status verdict = FsckDatabase(dbms_.get(), &text);
  EXPECT_EQ(verdict.code(), StatusCode::kDataLoss) << verdict.ToString();
  EXPECT_NE(text.find("summary-drift"), std::string::npos) << text;
}

TEST_F(DbAuditorTest, AuditedUpdatePassesWhenMaintenanceIsCorrect) {
  dbms_->set_audit_after_update(true);
  STATDB_ASSERT_OK(dbms_->Query("v", "mean", "INCOME").status());
  UpdateSpec spec;
  spec.predicate = nullptr;  // every row, so the update is never empty
  spec.column = "INCOME";
  spec.value = Lit(60000.0);
  spec.description = "flatten incomes";
  auto n = dbms_->Update("v", spec);
  STATDB_ASSERT_OK(n.status());
  EXPECT_GT(*n, 0u);
}

TEST_F(DbAuditorTest, AuditedUpdateFailsWhenCacheIsPoisoned) {
  dbms_->set_audit_after_update(true);
  STATDB_ASSERT_OK(dbms_->Query("v", "mean", "INCOME").status());
  // Poison an entry on an attribute the next update does not touch, so
  // no maintenance rule gets a chance to repair or invalidate it.
  auto summary = dbms_->GetSummaryDb("v");
  ASSERT_TRUE(summary.ok());
  STATDB_ASSERT_OK((*summary)->Refresh(SummaryKey::Of("mean", "INCOME"),
                                       SummaryResult::Scalar(-1), 0));
  UpdateSpec spec;
  spec.predicate = nullptr;
  spec.column = "HOURS_WORKED";
  spec.value = Lit(0.0);
  auto n = dbms_->Update("v", spec);
  EXPECT_EQ(n.status().code(), StatusCode::kDataLoss)
      << n.status().ToString();
}

TEST_F(DbAuditorTest, RollbackIsAuditedToo) {
  dbms_->set_audit_after_update(true);
  UpdateSpec spec;
  spec.predicate = nullptr;
  spec.column = "HOURS_WORKED";
  spec.value = Lit(0.0);
  STATDB_ASSERT_OK(dbms_->Update("v", spec).status());
  STATDB_ASSERT_OK(dbms_->Rollback("v", 0));
}

TEST_F(DbAuditorTest, FrozenEdgeHistogramIsNotReportedAsDrift) {
  // The incremental histogram maintainer freezes its bucket edges while
  // updates move the column's min/max. The oracle must recount under the
  // cached edges, not compare against an auto-edged recompute.
  STATDB_ASSERT_OK(dbms_->Query("v", "histogram", "INCOME").status());
  dbms_->set_audit_after_update(true);
  UpdateSpec winsorize;
  winsorize.predicate = Gt(Col("INCOME"), Lit(60000.0));
  winsorize.column = "INCOME";
  winsorize.value = Lit(60000.0);
  STATDB_ASSERT_OK(dbms_->Update("v", winsorize).status());
  std::string text;
  STATDB_ASSERT_OK(FsckDatabase(dbms_.get(), &text));
}

TEST_F(DbAuditorTest, RollbackClampsVersionsOfUntouchedEntries) {
  // Cache entries on INCOME, then advance the view version with updates
  // that never touch INCOME, then roll everything back. The INCOME
  // entries stay fresh (their column never changed) but must not keep
  // version stamps from the undone timeline — those would collide with
  // re-advanced version numbers and corrupt max_version_lag arithmetic.
  STATDB_ASSERT_OK(dbms_->Query("v", "mean", "INCOME").status());
  UpdateSpec spec;
  spec.predicate = nullptr;
  spec.column = "HOURS_WORKED";
  spec.value = Lit(1.0);
  STATDB_ASSERT_OK(dbms_->Update("v", spec).status());
  STATDB_ASSERT_OK(dbms_->Query("v", "count", "INCOME").status());
  spec.value = Lit(2.0);
  STATDB_ASSERT_OK(dbms_->Update("v", spec).status());
  STATDB_ASSERT_OK(dbms_->Rollback("v", 0));

  auto view = dbms_->GetView("v");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*view)->version(), 0u);
  auto summary = dbms_->GetSummaryDb("v");
  ASSERT_TRUE(summary.ok());
  STATDB_ASSERT_OK((*summary)->ForEach([&](const SummaryEntry& e) -> Status {
    EXPECT_LE(e.view_version, (*view)->version()) << e.key.ToString();
    return Status::OK();
  }));
  // The auditor's future-version invariant agrees.
  std::string text;
  STATDB_ASSERT_OK(FsckDatabase(dbms_.get(), &text));
}

}  // namespace
}  // namespace statdb
