// End-to-end causal tracing (DESIGN.md §10): context
// minting/scoping, the SLO tracker's breach accounting, the bounded
// slow-query log and its read-time flight-event join, the Chrome trace-event
// exporter, and — the point of the subsystem — the invariant that ONE
// trace_id stitches together all four telemetry streams a top-level
// operation touches: QueryTrace spans, flight events, delta-flush
// records and WAL commits.
//
// Also holds the begin/end pairing regression: every kQueryBegin must
// be matched by exactly one kQueryEnd carrying the same trace_id, on
// success AND error paths of every Query* wrapper.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "causal/trace_context.h"
#include "common/rng.h"
#include "core/dbms.h"
#include "flight/chrome_trace.h"
#include "flight/flight_recorder.h"
#include "gtest/gtest.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "relational/datagen.h"
#include "relational/expr.h"
#include "session/session.h"
#include "tests/test_util.h"

namespace statdb {
namespace {

using causal::ScopedTraceContext;
using causal::TraceContext;
using delta::DeltaConfig;
using delta::MaintenanceStrategy;
using session::Session;
using session::SessionConfig;
using session::SessionManager;

// --- trace context -----------------------------------------------------------

TEST(TraceContextTest, MintIsUniqueAndNonZeroAcrossThreads) {
  constexpr int kThreads = 8;
  constexpr int kMintsPerThread = 5000;
  std::vector<std::vector<uint64_t>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ids, t] {
      ids[t].reserve(kMintsPerThread);
      for (int i = 0; i < kMintsPerThread; ++i) {
        TraceContext ctx = causal::Mint(uint64_t(t));
        ids[t].push_back(ctx.trace_id);
        EXPECT_EQ(ctx.session_id, uint64_t(t));
        EXPECT_EQ(ctx.query_seq, ctx.trace_id);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  std::set<uint64_t> all;
  for (const auto& v : ids) {
    for (uint64_t id : v) {
      EXPECT_NE(id, 0u);
      EXPECT_TRUE(all.insert(id).second) << "duplicate trace_id " << id;
    }
  }
  EXPECT_EQ(all.size(), size_t(kThreads) * kMintsPerThread);
}

TEST(TraceContextTest, ScopedInstallNestsAndRestores) {
  EXPECT_EQ(causal::CurrentTraceId(), 0u);
  TraceContext outer = causal::Mint(7);
  {
    ScopedTraceContext outer_scope(outer);
    EXPECT_EQ(causal::Current().trace_id, outer.trace_id);
    EXPECT_EQ(causal::Current().session_id, 7u);
    TraceContext inner = causal::Mint(9);
    {
      ScopedTraceContext inner_scope(inner);
      // ctx() reports what THIS scope installed, not the thread slot.
      EXPECT_EQ(inner_scope.ctx().trace_id, inner.trace_id);
      EXPECT_EQ(outer_scope.ctx().trace_id, outer.trace_id);
      EXPECT_EQ(causal::Current().trace_id, inner.trace_id);
      EXPECT_EQ(causal::Current().session_id, 9u);
    }
    // Inner scope exit restores the outer context, not zero.
    EXPECT_EQ(causal::Current().trace_id, outer.trace_id);
  }
  EXPECT_EQ(causal::CurrentTraceId(), 0u);
  EXPECT_FALSE(causal::Current().valid());
}

TEST(TraceContextTest, WorkerThreadsDoNotInheritTheCallersContext) {
  ScopedTraceContext scope(causal::Mint());
  ASSERT_NE(causal::CurrentTraceId(), 0u);
  uint64_t seen = 99;
  std::thread worker([&seen] { seen = causal::CurrentTraceId(); });
  worker.join();
  // The context is thread-local: a new thread starts without one. Pool
  // tasks install their submitter's context themselves (DESIGN.md §9.1).
  EXPECT_EQ(seen, 0u);
}

// --- SLO tracker -------------------------------------------------------------

TEST(SloTrackerTest, BreachCountersAreMonotoneAcrossTiers) {
  MetricsRegistry registry;
  SloTracker slo(&registry);
  SloTarget target;
  target.p50_ms = 10;
  target.p95_ms = 20;
  target.p99_ms = 30;
  target.error_budget = 0.1;
  SloClass* query = slo.GetClass("query");
  query->SetTarget(target);

  query->Record(5.0, false);   // inside every target
  query->Record(15.0, false);  // over p50 only
  query->Record(25.0, false);  // over p50 + p95
  query->Record(35.0, false);  // over everything

  // The breach counters are registry instruments.
  auto count = [&](const char* leaf) {
    return registry.GetCounter(std::string("slo.query.") + leaf)->Get();
  };
  EXPECT_EQ(count("total"), 4u);
  EXPECT_EQ(count("over_p50"), 3u);
  EXPECT_EQ(count("over_p95"), 2u);
  EXPECT_EQ(count("over_p99"), 1u);
  EXPECT_EQ(count("errors"), 0u);
  // A sample breaching p99 necessarily breached p95 and p50.
  EXPECT_GE(count("over_p50"), count("over_p95"));
  EXPECT_GE(count("over_p95"), count("over_p99"));
  // burn = (over_p99 + errors) / (budget * total) = 1 / 0.4.
  EXPECT_NEAR(query->BudgetBurn(), 2.5, 1e-9);
  // The class histogram rides the shared registry.
  EXPECT_EQ(registry.GetHistogram("slo.query.ms")->Count(), 4u);
}

TEST(SloTrackerTest, ErrorsBurnBudgetWithoutTouchingLatencyTiers) {
  MetricsRegistry registry;
  SloTracker slo(&registry);
  SloTarget target;
  target.error_budget = 0.5;
  SloClass* update = slo.GetClass("update");
  update->SetTarget(target);
  update->Record(0.01, true);
  update->Record(0.01, false);
  EXPECT_EQ(registry.GetCounter("slo.update.total")->Get(), 2u);
  EXPECT_EQ(registry.GetCounter("slo.update.errors")->Get(), 1u);
  EXPECT_EQ(registry.GetCounter("slo.update.over_p50")->Get(), 0u);
  EXPECT_EQ(registry.GetCounter("slo.update.over_p99")->Get(), 0u);
  // 1 error / (0.5 * 2)
  EXPECT_NEAR(update->BudgetBurn(), 1.0, 1e-9);
}

TEST(SloTrackerTest, UnconfiguredClassGetsDefaultTargetOnFirstSight) {
  MetricsRegistry registry;
  SloTracker slo(&registry);
  slo.GetClass("bivariate")->Record(1.0, false);
  EXPECT_EQ(registry.GetCounter("slo.bivariate.total")->Get(), 1u);
  EXPECT_EQ(slo.GetClass("bivariate")->target().p99_ms,
            SloTracker::DefaultTarget().p99_ms);
  std::string json = slo.DumpJson();
  EXPECT_NE(json.find("\"slo\""), std::string::npos);
  EXPECT_NE(json.find("\"bivariate\""), std::string::npos);
  EXPECT_NE(json.find("\"error_budget\""), std::string::npos);
}

// --- slow-query log ----------------------------------------------------------

QueryTrace MakeTrace(uint64_t trace_id, const std::string& fn = "mean") {
  QueryTrace t;
  t.SetLabel("query", "v", fn, "INCOME");
  t.SetContext(trace_id, 0, trace_id);
  t.Add(SpanKind::kScan, 1.5, 100, 2);
  t.SetOutcome(TraceOutcome::kComputed);
  t.SetTotalMs(2.0);
  return t;
}

TEST(SlowQueryLogTest, BoundedRingDropsOldestAndCountsDrops) {
  FlightRecorder flight(8);
  SlowQueryLog log(&flight, /*capacity=*/4);
  log.set_enabled(true);
  log.set_threshold_ms(1.0);
  QueryTrace fast = MakeTrace(99);
  fast.SetTotalMs(0.5);
  log.MaybeCapture(fast);  // under the threshold
  EXPECT_EQ(log.captured(), 0u);
  QueryTrace edge = MakeTrace(1);
  edge.SetTotalMs(1.0);
  log.MaybeCapture(edge);  // exactly at the threshold: kept
  EXPECT_EQ(log.captured(), 1u);
  for (uint64_t id = 2; id <= 6; ++id) {
    log.MaybeCapture(MakeTrace(id));  // 2.0 ms each
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.captured(), 6u);
  EXPECT_EQ(log.dropped(), 2u);
  std::vector<SlowQueryLog::Entry> entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries.front().trace.trace_id(), 3u);  // 1 and 2 dropped
  EXPECT_EQ(entries.back().trace.trace_id(), 6u);
}

TEST(SlowQueryLogTest, CaptureJoinsOnlyFlightEventsOfTheSameTrace) {
  FlightRecorder flight(64);
  TraceContext mine = causal::Mint();
  TraceContext other = causal::Mint();
  flight.Record(mine, FlightEventKind::kQueryBegin, "v.mean(INCOME)");
  flight.Record(other, FlightEventKind::kQueryBegin, "v.max(AGE)");
  flight.Record(mine, FlightEventKind::kWalCommit, "INCOME", 3, 2, 0.4);
  flight.Record(other, FlightEventKind::kQueryEnd, "v.max(AGE)");

  SlowQueryLog& log = flight.slow_log();
  log.set_enabled(true);
  log.set_threshold_ms(0.0);
  log.MaybeCapture(MakeTrace(mine.trace_id));
  // The join happens on read, so an event recorded after the capture
  // still belongs to the entry.
  flight.Record(mine, FlightEventKind::kQueryEnd, "v.mean(INCOME)");

  std::vector<SlowQueryLog::Entry> entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  const SlowQueryLog::Entry& e = entries[0];
  EXPECT_EQ(e.trace.total_ms(), 2.0);
  ASSERT_EQ(e.events.size(), 3u);  // other's events filtered out
  for (const FlightEvent& ev : e.events) {
    EXPECT_EQ(ev.trace, mine.trace_id);
  }
  std::string json = flight.DumpJson("test");
  EXPECT_NE(json.find("\"slow_traces\""), std::string::npos);
  EXPECT_NE(json.find("\"flight_events\""), std::string::npos);
}

TEST(SlowQueryLogTest, AutoDumpFiresExactlyOnceAndWritesTheFile) {
  const std::string path =
      ::testing::TempDir() + "causal_slowlog_autodump.json";
  std::remove(path.c_str());
  FlightRecorder flight(16);
  flight.slow_log().set_enabled(true);
  flight.slow_log().set_threshold_ms(0.0);
  flight.slow_log().MaybeCapture(MakeTrace(42));

  // The slow traces ride the flight recorder's one black box.
  EXPECT_FALSE(flight.AutoDumpOnce("degraded"));  // unarmed
  flight.set_auto_dump_path(path);
  EXPECT_TRUE(flight.AutoDumpOnce("degraded"));
  EXPECT_FALSE(flight.AutoDumpOnce("degraded"));  // one-shot
  EXPECT_EQ(flight.auto_dumps(), 1u);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string dumped((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  EXPECT_NE(dumped.find("\"slow_traces\""), std::string::npos);
  EXPECT_NE(dumped.find("\"trace_id\": 42"), std::string::npos);
  std::remove(path.c_str());
}

// --- Chrome trace exporter ---------------------------------------------------

TEST(ChromeTraceTest, ExportsCompleteInstantAndMetadataEvents) {
  FlightRecorder flight(32);
  TraceContext ctx = causal::Mint(/*session_id=*/5);
  flight.Record(ctx, FlightEventKind::kQueryBegin, "v.mean(INCOME)");
  flight.Record(ctx, FlightEventKind::kQueryEnd, "v.mean(INCOME)");

  QueryTrace t = MakeTrace(ctx.trace_id);
  t.SetContext(ctx.trace_id, ctx.session_id, ctx.query_seq);

  std::string doc = ExportChromeTrace({t}, flight.SnapshotEvents());
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\": \"X\""), std::string::npos);  // spans
  EXPECT_NE(doc.find("\"ph\": \"i\""), std::string::npos);  // instants
  EXPECT_NE(doc.find("\"ph\": \"M\""), std::string::npos);  // lane names
  EXPECT_NE(doc.find("\"statdb\""), std::string::npos);
  EXPECT_NE(doc.find("session 5"), std::string::npos);  // session lane
}

TEST(ChromeTraceTest, TraceIdFilterRestrictsTheExport) {
  FlightRecorder flight(32);
  TraceContext a = causal::Mint();
  TraceContext b = causal::Mint();
  flight.Record(a, FlightEventKind::kQueryBegin, "v.mean(INCOME)");
  flight.Record(b, FlightEventKind::kQueryBegin, "v.max(AGE)");
  QueryTrace ta = MakeTrace(a.trace_id, "mean");
  QueryTrace tb = MakeTrace(b.trace_id, "max");

  std::string doc =
      ExportChromeTrace({ta, tb}, flight.SnapshotEvents(),
                                a.trace_id);
  EXPECT_NE(doc.find("query mean(INCOME)"), std::string::npos);
  EXPECT_EQ(doc.find("query max(INCOME)"), std::string::npos);
  EXPECT_EQ(doc.find("v.max(AGE)"), std::string::npos);
}

// --- Dbms integration --------------------------------------------------------

class CausalDbmsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage_ = MakeTapeDiskStorage();
    ASSERT_TRUE(
        storage_->AddDevice("wal", DeviceCostModel::Memory(), 64).ok());
    dbms_ = std::make_unique<StatisticalDbms>(storage_.get());
    CensusOptions opts;
    opts.rows = 600;
    Rng rng(17);
    auto data = GenerateCensusMicrodata(opts, &rng);
    ASSERT_TRUE(data.ok());
    STATDB_ASSERT_OK(dbms_->LoadRawDataSet("census", *data, "synthetic"));
    ViewDefinition def;
    def.source = "census";
    STATDB_ASSERT_OK(
        dbms_->CreateView("v", def, MaintenancePolicy::kIncremental)
            .status());
  }

  void ForceBatched() {
    DeltaConfig cfg;
    cfg.adaptive = false;
    cfg.default_strategy = MaintenanceStrategy::kDeltaBatched;
    cfg.flush_threshold = size_t{1} << 40;  // only barriers flush
    dbms_->set_delta_config(cfg);
  }

  static UpdateSpec BumpIncomes(double factor) {
    UpdateSpec spec;
    spec.predicate = Lt(Col("AGE"), Lit(int64_t{30}));
    spec.column = "INCOME";
    spec.value = Mul(Col("INCOME"), Lit(factor));
    return spec;
  }

  /// (begins, ends) per trace_id in the current flight window.
  std::map<uint64_t, std::pair<int, int>> PairingByTrace() {
    std::map<uint64_t, std::pair<int, int>> pairs;
    for (const FlightEvent& e : dbms_->flight().SnapshotEvents()) {
      if (e.kind == FlightEventKind::kQueryBegin) ++pairs[e.trace].first;
      if (e.kind == FlightEventKind::kQueryEnd) ++pairs[e.trace].second;
    }
    return pairs;
  }

  std::unique_ptr<StorageManager> storage_;
  std::unique_ptr<StatisticalDbms> dbms_;
};

TEST_F(CausalDbmsTest, EveryEntryPointMintsADistinctContext) {
  CollectingTraceSink sink;
  dbms_->set_trace_sink(&sink);
  dbms_->flight().Clear();
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
  std::set<uint64_t> ids;
  for (const QueryTrace& t : traces) {
    EXPECT_NE(t.trace_id(), 0u) << t.operation();
    EXPECT_EQ(t.session_id(), 0u) << t.operation();  // head path
    EXPECT_EQ(t.query_seq(), t.trace_id()) << t.operation();
    EXPECT_TRUE(ids.insert(t.trace_id()).second) << t.operation();
  }
  // Each trace's begin/end events carry ITS id into the flight stream;
  // QueryMany emits one pair per batched request, all under one trace.
  std::map<uint64_t, std::pair<int, int>> pairs = PairingByTrace();
  for (const QueryTrace& t : traces) {
    ASSERT_TRUE(pairs.count(t.trace_id())) << t.operation();
    EXPECT_GE(pairs[t.trace_id()].first, 1) << t.operation();
    EXPECT_EQ(pairs[t.trace_id()].first, pairs[t.trace_id()].second)
        << t.operation();
  }
}

// Regression for the begin/end pairing bug: error paths (and the
// bivariate crosstab forward) must still emit exactly one kQueryEnd per
// kQueryBegin, with the same trace stamp.
TEST_F(CausalDbmsTest, BeginEndPairingHoldsOnErrorAndForwardPaths) {
  dbms_->flight().Clear();
  EXPECT_FALSE(dbms_->Query("v", "mean", "NO_SUCH_ATTR").ok());
  EXPECT_FALSE(dbms_->Query("no_view", "mean", "INCOME").ok());
  EXPECT_FALSE(dbms_->Query("v", "no_such_fn", "INCOME").ok());
  EXPECT_FALSE(
      dbms_->QueryParallel("v", "mean", "NO_SUCH_ATTR", {}, {}, 2).ok());
  std::vector<QueryRequest> bad = {{"mean", "NO_SUCH_ATTR", {}}};
  EXPECT_FALSE(dbms_->QueryMany("no_view", bad, {}, 2).ok());
  EXPECT_FALSE(
      dbms_->QueryBivariateParallel("v", "correlation", "AGE", "NOPE", {}, 2)
          .ok());
  // The crosstab forward: QueryBivariateParallel hands categorical pairs
  // to the serial path, which owns the single begin/end pair.
  STATDB_ASSERT_OK(
      dbms_->QueryBivariateParallel("v", "crosstab", "SEX", "RACE", {}, 2)
          .status());
  EXPECT_FALSE(dbms_->QueryBivariate("v", "crosstab", "SEX", "NOPE").ok());
  STATDB_ASSERT_OK(
      dbms_->QueryGroupCompare("v", "INCOME", "SEX", 0, 1).status());
  EXPECT_FALSE(dbms_->QueryGroupCompare("v", "NOPE", "SEX", 0, 1).ok());

  std::map<uint64_t, std::pair<int, int>> pairs = PairingByTrace();
  EXPECT_FALSE(pairs.empty());
  int begins = 0, ends = 0;
  for (const auto& [trace, counts] : pairs) {
    EXPECT_NE(trace, 0u);  // every pair is attributed
    EXPECT_EQ(counts.first, 1) << "trace " << trace;
    EXPECT_EQ(counts.second, 1) << "trace " << trace;
    begins += counts.first;
    ends += counts.second;
  }
  EXPECT_EQ(begins, ends);
}

// The tentpole invariant: one trace_id joins all four telemetry streams.
// A batched-delta query must flush pending deltas (stream 3) and commit
// the WAL (stream 4) under the SAME context as its begin/end flight pair
// (stream 2) and its QueryTrace (stream 1).
TEST_F(CausalDbmsTest, OneTraceIdJoinsAllFourTelemetryStreams) {
  STATDB_ASSERT_OK(dbms_->EnableDurability("wal"));
  ForceBatched();
  STATDB_ASSERT_OK(dbms_->Query("v", "mean", "INCOME").status());  // prime
  ASSERT_TRUE(dbms_->Update("v", BumpIncomes(2.0)).ok());
  ASSERT_GT(dbms_->PendingDeltas("v").value(), 0u);

  CollectingTraceSink sink;
  dbms_->set_trace_sink(&sink);
  dbms_->flight().slow_log().set_threshold_ms(0.0);
  dbms_->flight().slow_log().set_enabled(true);
  dbms_->flight().Clear();
  // Flush-before-serve: this query drains the pending deltas, serves
  // the maintained entry, and its commit tail flushes dirty pages.
  STATDB_ASSERT_OK(dbms_->Query("v", "mean", "INCOME").status());
  dbms_->set_trace_sink(nullptr);

  std::vector<QueryTrace> traces = sink.Take();
  ASSERT_EQ(traces.size(), 1u);
  const uint64_t id = traces[0].trace_id();
  ASSERT_NE(id, 0u);

  bool begin = false, end = false, flush = false, commit = false;
  for (const FlightEvent& e : dbms_->flight().SnapshotEvents()) {
    if (e.trace != id) continue;
    if (e.kind == FlightEventKind::kQueryBegin) begin = true;
    if (e.kind == FlightEventKind::kQueryEnd) end = true;
    if (e.kind == FlightEventKind::kDeltaFlush) {
      flush = true;
      EXPECT_STREQ(e.label, "v.INCOME");
    }
    if (e.kind == FlightEventKind::kWalCommit) commit = true;
  }
  EXPECT_TRUE(begin) << "flight kQueryBegin missing for trace " << id;
  EXPECT_TRUE(end) << "flight kQueryEnd missing for trace " << id;
  EXPECT_TRUE(flush) << "kDeltaFlush not attributed to trace " << id;
  EXPECT_TRUE(commit) << "kWalCommit not attributed to trace " << id;
  EXPECT_EQ(dbms_->PendingDeltas("v").value(), 0u);

  // The slow log captured the same story (threshold 0 retains all)...
  std::vector<SlowQueryLog::Entry> entries =
      dbms_->flight().slow_log().Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].trace.trace_id(), id);
  for (const FlightEvent& e : entries[0].events) EXPECT_EQ(e.trace, id);
  // ...and the Chrome export of exactly this operation renders it.
  std::string doc = dbms_->DumpChromeTrace(id);
  EXPECT_NE(doc.find("\"trace_id\": " + std::to_string(id)),
            std::string::npos);
  EXPECT_NE(doc.find("delta_flush"), std::string::npos);
  EXPECT_NE(doc.find("wal_commit"), std::string::npos);
}

TEST_F(CausalDbmsTest, QueryWrappersFeedTheSloTracker) {
  STATDB_ASSERT_OK(dbms_->Query("v", "mean", "INCOME").status());
  EXPECT_FALSE(dbms_->Query("v", "mean", "NO_SUCH_ATTR").ok());
  ASSERT_TRUE(dbms_->Update("v", BumpIncomes(1.1)).ok());
  // The breach counters are registry instruments.
  MetricsRegistry& m = dbms_->metrics();
  EXPECT_EQ(m.GetCounter("slo.query.total")->Get(), 2u);
  EXPECT_EQ(m.GetCounter("slo.query.errors")->Get(), 1u);
  EXPECT_EQ(m.GetCounter("slo.update.total")->Get(), 1u);
  EXPECT_EQ(m.GetCounter("slo.update.errors")->Get(), 0u);
  std::string json = dbms_->slo().DumpJson();
  EXPECT_NE(json.find("\"query\""), std::string::npos);
  EXPECT_NE(json.find("\"update\""), std::string::npos);
}

// kQueryEnd and the profiler carry the one wall time the operation's
// finish measured: a slow sink is not part of the query.
TEST_F(CausalDbmsTest, QueryEndExcludesTraceSinkTime) {
  struct SleepySink : TraceSink {
    void OnQueryTrace(const QueryTrace& trace) override {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      last = trace;
    }
    QueryTrace last;
  } sink;
  const double profiled_before =
      dbms_->workload_profiler().AttributeStats("v", "INCOME").query_ms;
  dbms_->set_trace_sink(&sink);
  dbms_->flight().Clear();
  STATDB_ASSERT_OK(dbms_->Query("v", "mean", "INCOME").status());
  dbms_->set_trace_sink(nullptr);

  const uint64_t id = sink.last.trace_id();
  ASSERT_NE(id, 0u);
  int ends = 0;
  for (const FlightEvent& e : dbms_->flight().SnapshotEvents()) {
    if (e.kind != FlightEventKind::kQueryEnd || e.trace != id) continue;
    ++ends;
    EXPECT_EQ(e.x, sink.last.total_ms());
  }
  EXPECT_EQ(ends, 1);
  EXPECT_NEAR(
      dbms_->workload_profiler().AttributeStats("v", "INCOME").query_ms -
          profiled_before,
      sink.last.total_ms(), 1e-9);
}

TEST_F(CausalDbmsTest, RecoveryRunsUnderItsOwnTrace) {
  STATDB_ASSERT_OK(dbms_->EnableDurability("wal"));
  ASSERT_TRUE(dbms_->Update("v", BumpIncomes(1.5)).ok());

  // Re-attach a fresh DBMS to the same storage and recover, watching
  // its flight stream: every kRecoveryStep must share the ONE context
  // the Recover() wrapper minted.
  StatisticalDbms db2(storage_.get());
  STATDB_ASSERT_OK(db2.EnableDurability("wal"));
  CollectingTraceSink sink;
  db2.set_trace_sink(&sink);
  db2.flight().Clear();
  STATDB_ASSERT_OK(db2.Recover());

  std::vector<QueryTrace> traces = sink.Take();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].operation(), "recover");
  const uint64_t id = traces[0].trace_id();
  ASSERT_NE(id, 0u);
  int steps = 0;
  for (const FlightEvent& e : db2.flight().SnapshotEvents()) {
    if (e.kind != FlightEventKind::kRecoveryStep) continue;
    ++steps;
    EXPECT_EQ(e.trace, id) << e.label;
  }
  EXPECT_GT(steps, 0);
  EXPECT_EQ(db2.metrics().GetCounter("slo.recover.total")->Get(), 1u);
}

// --- per-session attribution (unit-sized; the stress harness lives in
// causal_attribution_stress_test.cc) ----------------------------------------

TEST_F(CausalDbmsTest, SessionCountersMirrorIntoGlobalAggregates) {
  SessionManager& mgr = *dbms_->EnableSessions({}).value();
  Session* a = mgr.Open("alice").value();
  Session* b = mgr.Open("bob").value();

  STATDB_ASSERT_OK(a->Query("v", "mean", "INCOME").status());
  STATDB_ASSERT_OK(a->Query("v", "mean", "INCOME").status());  // cache hit
  STATDB_ASSERT_OK(b->Query("v", "max", "AGE").status());
  STATDB_ASSERT_OK(b->ReadColumn("v", "INCOME").status());

  Session::Stats sa = a->stats();
  Session::Stats sb = b->stats();
  EXPECT_EQ(sa.queries, 2u);
  EXPECT_EQ(sa.cache_hits, 1u);
  EXPECT_GT(sa.rows, 0u);
  EXPECT_GT(sa.pages, 0u);
  EXPECT_EQ(sa.flushes, 0u);  // read-only sessions never flush
  EXPECT_EQ(sb.queries, 1u);
  EXPECT_GT(sb.rows, sa.rows);  // bob also materialized a full column

  MetricsRegistry& reg = dbms_->metrics();
  auto counter = [&reg](const std::string& name) {
    return reg.GetCounter(name)->Get();
  };
  // Per-label instruments carry exactly the per-session numbers...
  EXPECT_EQ(counter("session.alice.queries"), sa.queries);
  EXPECT_EQ(counter("session.alice.cache_hits"), sa.cache_hits);
  EXPECT_EQ(counter("session.alice.rows"), sa.rows);
  EXPECT_EQ(counter("session.bob.rows"), sb.rows);
  EXPECT_EQ(counter("session.bob.pages"), sb.pages);
  // ...and the global mirrors are their exact sums.
  EXPECT_EQ(counter("sessions.queries"), sa.queries + sb.queries);
  EXPECT_EQ(counter("sessions.cache_hits"), sa.cache_hits + sb.cache_hits);
  EXPECT_EQ(counter("sessions.rows"), sa.rows + sb.rows);
  EXPECT_EQ(counter("sessions.pages"), sa.pages + sb.pages);
  EXPECT_EQ(counter("sessions.flushes"), 0u);
  EXPECT_EQ(reg.GetHistogram("sessions.query_ms")->Count(),
            sa.queries + sb.queries);

  STATDB_ASSERT_OK(mgr.Close(a));
  STATDB_ASSERT_OK(mgr.Close(b));
}

TEST_F(CausalDbmsTest, SessionOperationsCarrySessionScopedContexts) {
  SessionManager& mgr = *dbms_->EnableSessions({}).value();
  dbms_->flight().Clear();
  Session* s = mgr.Open("carol").value();
  STATDB_ASSERT_OK(s->Query("v", "mean", "INCOME").status());
  STATDB_ASSERT_OK(mgr.Close(s));

  bool open_seen = false, close_seen = false;
  for (const FlightEvent& e : dbms_->flight().SnapshotEvents()) {
    if (e.kind == FlightEventKind::kSessionOpen) {
      open_seen = true;
      EXPECT_NE(e.trace, 0u);
      EXPECT_STREQ(e.label, "carol");
    }
    if (e.kind == FlightEventKind::kSessionClose) {
      close_seen = true;
      EXPECT_NE(e.trace, 0u);
    }
  }
  EXPECT_TRUE(open_seen);
  EXPECT_TRUE(close_seen);
}

}  // namespace
}  // namespace statdb
