// statdb::obs — the unified metrics registry and per-query tracing
// (DESIGN.md §10): instrument semantics, registry export, trace spans
// threaded through every Query* entry point, the DumpMetrics() document,
// the ServedRate()/HitRate() distinction, and a TSan-exercised hammer
// proving the registry's lock-free counters stay exact under concurrent
// QueryMany traffic.

#include "obs/metrics.h"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/dbms.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "obs/trace.h"
#include "relational/datagen.h"
#include "relational/expr.h"
#include "tests/test_util.h"

namespace statdb {
namespace {

// --- instruments ------------------------------------------------------------

TEST(MetricsTest, CounterAndGaugeBasics) {
  Counter c;
  c.Inc();
  c.Inc(4);
  EXPECT_EQ(c.Get(), 5u);
  c.Reset();
  EXPECT_EQ(c.Get(), 0u);

  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.Get(), 2.5);
  g.MaxOf(1.0);  // smaller: no-op
  EXPECT_DOUBLE_EQ(g.Get(), 2.5);
  g.MaxOf(7.0);
  EXPECT_DOUBLE_EQ(g.Get(), 7.0);
  g.Set(0.0);
  g.Add(1.5);
  g.Add(2.5);
  EXPECT_DOUBLE_EQ(g.Get(), 4.0);
}

TEST(MetricsTest, HistogramBucketsByPowersOfTwoMicroseconds) {
  LatencyHistogram h;
  h.Record(0.0015);  // ~1.5 µs -> bucket 0
  h.Record(0.003);   // ~3 µs   -> bucket 1
  h.Record(1.0);     // 1 ms    -> bucket 9 ([512, 1024) µs)
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_DOUBLE_EQ(h.MaxMs(), 1.0);
  EXPECT_NEAR(h.TotalMs(), 1.0045, 1e-9);
  EXPECT_EQ(h.BucketCount(0), 1u);
  EXPECT_EQ(h.BucketCount(1), 1u);
  EXPECT_EQ(h.BucketCount(9), 1u);
  // Degenerate inputs land in bucket 0 instead of corrupting memory.
  h.Record(-1.0);
  h.Record(0.0);
  EXPECT_EQ(h.BucketCount(0), 3u);
  // The p100 upper bound brackets the max within its power-of-two bucket.
  EXPECT_GE(h.QuantileUpperBoundMs(1.0), 1.0);
  EXPECT_LE(h.QuantileUpperBoundMs(1.0), 2.0 * 1.024);
}

TEST(MetricsTest, RegistryReturnsStablePointersAndDumps) {
  MetricsRegistry reg;
  Counter* c1 = reg.GetCounter("a.b");
  Counter* c2 = reg.GetCounter("a.b");
  EXPECT_EQ(c1, c2);  // get-or-create, never duplicated
  c1->Inc(3);
  reg.GetGauge("depth")->Set(4.5);
  reg.GetHistogram("lat")->Record(2.0);
  std::string json = reg.DumpJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"a.b\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"depth\": 4.5"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_ms\""), std::string::npos);
  reg.ResetAll();
  EXPECT_EQ(c1->Get(), 0u);  // pointer survives the reset
}

TEST(MetricsTest, RegistryCountersAreExactUnderContention) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("hammered");
  constexpr int kThreads = 8;
  constexpr int kBumps = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, c]() {
      // Half the bumps go through a fresh lookup to race registration.
      for (int i = 0; i < kBumps / 2; ++i) c->Inc();
      Counter* again = reg.GetCounter("hammered");
      for (int i = 0; i < kBumps / 2; ++i) again->Inc();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c->Get(), uint64_t(kThreads) * kBumps);
}

// --- traces -----------------------------------------------------------------

TEST(TraceTest, SpansAccumulateAndOverflowDropsNotGrows) {
  QueryTrace t;
  t.SetLabel("query", "v", "mean", "INCOME");
  t.Add(SpanKind::kCacheProbe, 0.5, 0, 1);
  t.Add(SpanKind::kScan, 2.0, 100, 4);
  t.Add(SpanKind::kScanChunk, 1.5, 50, 2, 0);  // excluded from the sum
  EXPECT_EQ(t.size(), 3u);
  EXPECT_DOUBLE_EQ(t.SpanSumMs(), 2.5);
  for (size_t i = 0; i < 2 * QueryTrace::kMaxSpans; ++i) {
    t.Add(SpanKind::kCompute, 0.1);
  }
  EXPECT_EQ(t.size(), QueryTrace::kMaxSpans);
  EXPECT_GT(t.dropped(), 0u);
  std::string json = t.ToJson();
  EXPECT_NE(json.find("\"operation\": \"query\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_spans\""), std::string::npos);
  std::string text = t.ToText();
  EXPECT_NE(text.find("cache_probe"), std::string::npos);
  EXPECT_NE(text.find("scan"), std::string::npos);
}

TEST(TraceTest, ScopedSpanWithNullTraceTouchesNothing) {
  // The zero-cost contract: no trace, no span recorded (and no crash).
  ScopedSpan span(nullptr, SpanKind::kScan);
  span.SetRows(100);
  span.SetRowsPaged(100, 0);  // cells_per_page 0 must not divide by zero
}

// --- DBMS integration -------------------------------------------------------

class ObsDbmsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sm_ = MakeTapeDiskStorage();
    dbms_ = std::make_unique<StatisticalDbms>(sm_.get());
    CensusOptions gen;
    gen.rows = 2000;
    Rng rng(11);
    auto data = GenerateCensusMicrodata(gen, &rng);
    STATDB_ASSERT_OK(data);
    STATDB_ASSERT_OK(dbms_->LoadRawDataSet("census", data.value()));
    ViewDefinition def;
    def.source = "census";
    STATDB_ASSERT_OK(
        dbms_->CreateView("v", def, MaintenancePolicy::kIncremental)
            .status());
  }

  std::unique_ptr<StorageManager> sm_;
  std::unique_ptr<StatisticalDbms> dbms_;
};

TEST_F(ObsDbmsTest, EveryQueryEntryPointEmitsATrace) {
  CollectingTraceSink sink;
  dbms_->set_trace_sink(&sink);
  STATDB_ASSERT_OK(dbms_->Query("v", "mean", "INCOME").status());
  STATDB_ASSERT_OK(
      dbms_->QueryParallel("v", "variance", "INCOME", {}, {}, 2).status());
  std::vector<QueryRequest> batch = {{"min", "AGE", {}}, {"max", "AGE", {}}};
  STATDB_ASSERT_OK(dbms_->QueryMany("v", batch, {}, 2).status());
  STATDB_ASSERT_OK(
      dbms_->QueryBivariateParallel("v", "correlation", "AGE", "INCOME", {},
                                    2)
          .status());
  dbms_->set_trace_sink(nullptr);

  std::vector<QueryTrace> traces = sink.Take();
  ASSERT_EQ(traces.size(), 4u);
  EXPECT_EQ(traces[0].operation(), "query");
  EXPECT_EQ(traces[1].operation(), "queryp");
  EXPECT_EQ(traces[2].operation(), "querymany");
  EXPECT_EQ(traces[3].operation(), "bivariate");
  for (const QueryTrace& t : traces) {
    EXPECT_GT(t.size(), 0u) << t.operation();
    EXPECT_GT(t.total_ms(), 0.0) << t.operation();
    // Non-overlapping span durations account for at most the total wall
    // time (the untimed glue between spans makes up the difference).
    EXPECT_GT(t.SpanSumMs(), 0.0) << t.operation();
    EXPECT_LE(t.SpanSumMs(), t.total_ms() * 1.05) << t.operation();
    EXPECT_EQ(t.outcome(), TraceOutcome::kComputed) << t.operation();
  }
  // The computed serial query carves its phases: probe, scan, compute,
  // insert, and (incremental policy) maintainer arming.
  const QueryTrace& q = traces[0];
  bool saw_scan = false, saw_insert = false;
  for (size_t i = 0; i < q.size(); ++i) {
    if (q.span(i).kind == SpanKind::kScan) {
      saw_scan = true;
      EXPECT_GT(q.span(i).rows, 0u);
      EXPECT_GT(q.span(i).pages, 0u);
    }
    if (q.span(i).kind == SpanKind::kSummaryInsert) saw_insert = true;
  }
  EXPECT_TRUE(saw_scan);
  EXPECT_TRUE(saw_insert);
}

TEST_F(ObsDbmsTest, CacheHitAndErrorOutcomesAreLabeled) {
  CollectingTraceSink sink;
  dbms_->set_trace_sink(&sink);
  STATDB_ASSERT_OK(dbms_->Query("v", "mean", "INCOME").status());
  STATDB_ASSERT_OK(dbms_->Query("v", "mean", "INCOME").status());
  EXPECT_FALSE(dbms_->Query("v", "mean", "NO_SUCH_ATTR").ok());
  dbms_->set_trace_sink(nullptr);
  std::vector<QueryTrace> traces = sink.Take();
  ASSERT_EQ(traces.size(), 3u);
  EXPECT_EQ(traces[0].outcome(), TraceOutcome::kComputed);
  EXPECT_EQ(traces[1].outcome(), TraceOutcome::kCacheHit);
  EXPECT_EQ(traces[2].outcome(), TraceOutcome::kError);
  // The outcome counters mirror the traces.
  MetricsRegistry& reg = dbms_->metrics();
  EXPECT_EQ(reg.GetCounter("dbms.answers.computed")->Get(), 1u);
  EXPECT_EQ(reg.GetCounter("dbms.answers.cache_hit")->Get(), 1u);
  EXPECT_EQ(reg.GetCounter("dbms.answers.error")->Get(), 1u);
  EXPECT_EQ(reg.GetHistogram("dbms.query_ms")->Count(), 3u);
}

// Update and Rollback carve their phases like queries do; the predicate
// scan reports the rows it evaluated and the pages it read.
TEST_F(ObsDbmsTest, UpdateAndRollbackEmitPhaseSpans) {
  CollectingTraceSink sink;
  dbms_->set_trace_sink(&sink);
  UpdateSpec spec;
  spec.column = "INCOME";
  spec.predicate = Gt(Col("AGE"), Lit(int64_t{60}));
  spec.value = Mul(Col("INCOME"), Lit(1.5));
  Result<uint64_t> changed = dbms_->Update("v", spec);
  STATDB_ASSERT_OK(changed);
  ASSERT_GT(*changed, 0u);
  STATDB_ASSERT_OK(dbms_->Rollback("v", 0));
  dbms_->set_trace_sink(nullptr);

  std::vector<QueryTrace> traces = sink.Take();
  ASSERT_EQ(traces.size(), 2u);
  auto kinds = [](const QueryTrace& t) {
    std::vector<SpanKind> out;
    for (size_t i = 0; i < t.size(); ++i) out.push_back(t.span(i).kind);
    return out;
  };
  const QueryTrace& update = traces[0];
  EXPECT_EQ(update.operation(), "update");
  EXPECT_EQ(update.attribute(), "INCOME");
  EXPECT_EQ(kinds(update),
            (std::vector<SpanKind>{SpanKind::kSnapshotCapture,
                                   SpanKind::kPredicateScan,
                                   SpanKind::kMaintenance,
                                   SpanKind::kWalCommit}));
  // Two referenced columns (AGE, INCOME), four pages each.
  EXPECT_EQ(update.span(1).rows, 2000u);
  EXPECT_EQ(update.span(1).pages, 2u * 4u);
  EXPECT_EQ(update.span(2).rows, *changed);
  EXPECT_LE(update.SpanSumMs(), update.total_ms() * 1.05);
  const QueryTrace& rollback = traces[1];
  EXPECT_EQ(rollback.operation(), "rollback");
  EXPECT_EQ(kinds(rollback),
            (std::vector<SpanKind>{SpanKind::kSnapshotCapture,
                                   SpanKind::kMaintenance,
                                   SpanKind::kWalCommit}));
  EXPECT_EQ(std::string(SpanKindName(SpanKind::kPredicateScan)),
            "predicate_scan");
}

// A regeneration carves the same phases: the capture, the fit-and-stage
// scan, the install with its upkeep, and the commit.
TEST_F(ObsDbmsTest, RegenerationEmitsPhaseSpans) {
  STATDB_ASSERT_OK(dbms_->AddDerivedColumn(
      "v", DerivedColumnDef::Residuals("RESID", "AGE", "INCOME")));
  UpdateSpec spec;
  spec.column = "INCOME";
  spec.value = Mul(Col("INCOME"), Lit(2.0));
  STATDB_ASSERT_OK(dbms_->Update("v", spec).status());
  CollectingTraceSink sink;
  dbms_->set_trace_sink(&sink);
  STATDB_ASSERT_OK(dbms_->RegenerateDerivedColumn("v", "RESID"));
  dbms_->set_trace_sink(nullptr);

  std::vector<QueryTrace> traces = sink.Take();
  ASSERT_EQ(traces.size(), 1u);
  const QueryTrace& regen = traces[0];
  EXPECT_EQ(regen.operation(), "regenerate");
  EXPECT_EQ(regen.attribute(), "RESID");
  std::vector<SpanKind> kinds;
  for (size_t i = 0; i < regen.size(); ++i) kinds.push_back(regen.span(i).kind);
  EXPECT_EQ(kinds, (std::vector<SpanKind>{SpanKind::kSnapshotCapture,
                                          SpanKind::kPredicateScan,
                                          SpanKind::kMaintenance,
                                          SpanKind::kWalCommit}));
  // The staging scan zips AGE, INCOME and RESID, four pages each; the
  // install rewrote every residual.
  EXPECT_EQ(regen.span(1).rows, 2000u);
  EXPECT_EQ(regen.span(1).pages, 3u * 4u);
  EXPECT_GT(regen.span(2).rows, 0u);
  EXPECT_LE(regen.SpanSumMs(), regen.total_ms() * 1.05);
}

TEST_F(ObsDbmsTest, NoSinkMeansNoTracesButCountersStillTick) {
  STATDB_ASSERT_OK(dbms_->Query("v", "mean", "INCOME").status());
  EXPECT_EQ(dbms_->metrics().GetHistogram("dbms.query_ms")->Count(), 1u);
  EXPECT_EQ(dbms_->metrics().GetCounter("dbms.answers.computed")->Get(), 1u);
}

TEST_F(ObsDbmsTest, DumpMetricsCoversAllFiveStatsFamilies) {
  STATDB_ASSERT_OK(dbms_->Query("v", "mean", "INCOME").status());
  STATDB_ASSERT_OK(dbms_->Query("v", "mean", "INCOME").status());
  std::vector<QueryRequest> batch = {{"variance", "AGE", {}}};
  STATDB_ASSERT_OK(dbms_->QueryMany("v", batch, {}, 2).status());
  std::string json = dbms_->DumpMetrics();
  // Summary-cache, traffic, device I/O, buffer pool and the registry
  // (query latency + pool counters) in ONE document.
  for (const char* needle :
       {"\"views\"", "\"v\"", "\"summary_db\"", "\"hit_rate\"",
        "\"served_rate\"", "\"traffic\"", "\"maintainer_applies\"",
        "\"devices\"", "\"tape\"", "\"disk\"", "\"io\"", "\"block_reads\"",
        "\"buffer_pool\"", "\"evictions\"", "\"registry\"",
        "\"dbms.query_ms\"", "\"exec.pool.tasks_executed\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
}

TEST_F(ObsDbmsTest, ServedRateCountsStaleServesHitRateDoesNot) {
  // Compute + cache, invalidate via an update, then serve the stale entry
  // under allow_stale.
  STATDB_ASSERT_OK(dbms_->Query("v", "median", "INCOME").status());
  UpdateSpec spec;
  spec.column = "INCOME";
  spec.value = Mul(Col("INCOME"), Lit(2.0));
  spec.predicate = Lt(Col("AGE"), Lit(25.0));
  STATDB_ASSERT_OK(dbms_->Update("v", spec).status());
  // Median's window maintainer may or may not survive the batch; force a
  // stale entry deterministically by invalidating.
  auto sdb = dbms_->GetSummaryDb("v");
  STATDB_ASSERT_OK(sdb);
  STATDB_ASSERT_OK(
      sdb.value()->MarkStale(SummaryKey::Of("median", "INCOME")));
  QueryOptions approx;
  approx.allow_stale = true;
  auto a = dbms_->Query("v", "median", "INCOME", {}, approx);
  STATDB_ASSERT_OK(a.status());
  EXPECT_EQ(a.value().source, AnswerSource::kStaleCacheHit);

  const SummaryDbStats s = sdb.value()->stats();
  EXPECT_EQ(s.served_stale, 1u);
  // The stale serve answered the lookup without touching the data, but
  // HitRate() refuses to count it; ServedRate() is the economic figure.
  EXPECT_GT(s.ServedRate(), s.HitRate());
  EXPECT_DOUBLE_EQ(s.ServedRate(),
                   double(s.hits + s.served_stale) / double(s.lookups));
}

// --- concurrency: registry counters under parallel QueryMany ---------------

TEST(ObsConcurrencyTest, ConcurrentQueryManyKeepsRegistryCountersExact) {
  // Three analysts hammer three DISJOINT views of the same installation
  // concurrently (per-view summary/traffic state is not shared; the
  // shared mutable state is the thread-safe BufferPool and the atomic
  // registry). Under TSan this doubles as a data-race probe over the
  // metrics hot path.
  auto sm = MakeTapeDiskStorage(256, 4096);
  StatisticalDbms dbms(sm.get());
  CensusOptions gen;
  gen.rows = 3000;
  Rng rng(5);
  auto data = GenerateCensusMicrodata(gen, &rng);
  STATDB_ASSERT_OK(data);
  constexpr int kThreads = 3;
  constexpr int kRounds = 8;
  for (int t = 0; t < kThreads; ++t) {
    std::string src = "census" + std::to_string(t);
    STATDB_ASSERT_OK(dbms.LoadRawDataSet(src, data.value()));
    ViewDefinition def;
    def.source = src;
    STATDB_ASSERT_OK(dbms.CreateView("v" + std::to_string(t), def,
                                     MaintenancePolicy::kInvalidate)
                         .status());
  }

  QueryOptions no_cache;
  no_cache.cache_result = false;
  std::vector<QueryRequest> batch = {{"mean", "INCOME", {}},
                                     {"variance", "INCOME", {}},
                                     {"max", "AGE", {}}};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&dbms, &batch, &no_cache, &failures, t]() {
      std::string view = "v" + std::to_string(t);
      for (int r = 0; r < kRounds; ++r) {
        auto answers = dbms.QueryMany(view, batch, no_cache, 2);
        if (!answers.ok() || answers.value().size() != 3) ++failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Every batch is a "computed" outcome; the relaxed counters must not
  // have lost a single bump across threads.
  MetricsRegistry& reg = dbms.metrics();
  EXPECT_EQ(reg.GetCounter("dbms.answers.computed")->Get(),
            uint64_t(kThreads) * kRounds);
  EXPECT_EQ(reg.GetHistogram("dbms.query_ms")->Count(),
            uint64_t(kThreads) * kRounds);
  // Pool accounting folds exactly: every task submitted was executed,
  // none rejected.
  EXPECT_EQ(reg.GetCounter("exec.pool.tasks_submitted")->Get(),
            reg.GetCounter("exec.pool.tasks_executed")->Get());
  EXPECT_EQ(reg.GetCounter("exec.pool.tasks_rejected")->Get(), 0u);
  EXPECT_GT(reg.GetCounter("exec.pool.tasks_executed")->Get(), 0u);
}

TEST(ObsFaultTest, RetryFaultAndDurabilityCountersReachTheDump) {
  auto sm = std::make_unique<StorageManager>();
  STATDB_ASSERT_OK(sm->AddDevice("tape", DeviceCostModel::Tape(), 256));
  auto disk =
      std::make_unique<FaultInjectingDevice>("disk", DeviceCostModel::Disk());
  FaultInjectingDevice* disk_ptr = disk.get();
  STATDB_ASSERT_OK(sm->AdoptDevice("disk", std::move(disk), 1024));
  auto wal =
      std::make_unique<FaultInjectingDevice>("wal", DeviceCostModel::Disk());
  STATDB_ASSERT_OK(sm->AdoptDevice("wal", std::move(wal), 8));

  // A transient failure on each of the first disk writes: the pool's
  // bounded retry absorbs them, and both layers account for it.
  FaultSchedule flaky;
  flaky.events.push_back({FaultKind::kTransientError, /*on_write=*/true, 1, 0});
  flaky.events.push_back({FaultKind::kTransientError, /*on_write=*/true, 3, 0});
  disk_ptr->set_schedule(flaky);

  StatisticalDbms dbms(sm.get());
  STATDB_ASSERT_OK(dbms.EnableDurability("wal"));
  CensusOptions gen;
  gen.rows = 500;
  Rng rng(13);
  auto data = GenerateCensusMicrodata(gen, &rng);
  STATDB_ASSERT_OK(data);
  STATDB_ASSERT_OK(dbms.LoadRawDataSet("census", data.value()));
  ViewDefinition def;
  def.source = "census";
  STATDB_ASSERT_OK(
      dbms.CreateView("v", def, MaintenancePolicy::kIncremental).status());
  STATDB_ASSERT_OK(dbms.Query("v", "mean", "INCOME").status());
  EXPECT_FALSE(dbms.degraded());

  // Layer 1: the device counted what it injected.
  EXPECT_EQ(disk_ptr->counters().transient_errors, 2u);
  // Layer 2: the pool counted the re-issued I/Os and the simulated wait.
  auto pool = sm->GetPool("disk");
  STATDB_ASSERT_OK(pool);
  EXPECT_GE(pool.value()->stats().retries, 2u);
  EXPECT_GT(pool.value()->stats().backoff_ms, 0.0);
  // Layer 3: commits and the WAL advanced.
  EXPECT_GT(dbms.last_committed_lsn(), 0u);
  EXPECT_GT(dbms.metrics().GetCounter("dbms.commits")->Get(), 0u);

  // And the one-document dump carries all of it: per-device fault
  // counters, pool retry accounting, and the durability block.
  std::string json = dbms.DumpMetrics();
  for (const char* needle :
       {"\"faults\"", "\"transient_errors\"", "\"torn_writes\"",
        "\"bit_flips\"", "\"power_cuts\"", "\"retries\"", "\"backoff_ms\"",
        "\"checksum_failures\"", "\"overflow_frames\"", "\"wal\"",
        "\"durability\"", "\"degraded\"", "\"last_lsn\"", "\"recoveries\"",
        "\"wal_records_appended\"", "\"wal_bytes_appended\"",
        "\"dbms.commits\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
}

}  // namespace
}  // namespace statdb
