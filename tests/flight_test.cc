#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dbms.h"
#include "fault/fault.h"
#include "flight/flight_recorder.h"
#include "flight/profiler.h"
#include "flight/timeseries.h"
#include "gtest/gtest.h"
#include "relational/datagen.h"
#include "relational/expr.h"
#include "tests/test_util.h"

namespace statdb {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --- ring buffer -----------------------------------------------------------

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder r(5);
  EXPECT_EQ(r.capacity(), 8u);
  FlightRecorder r2(8);
  EXPECT_EQ(r2.capacity(), 8u);
  FlightRecorder r3(0);
  EXPECT_GE(r3.capacity(), 1u);
}

TEST(FlightRecorderTest, WrapAroundKeepsExactlyTheLastWindow) {
  FlightRecorder r(8);
  for (int i = 0; i < 30; ++i) {
    r.Record(FlightEventKind::kCacheHit, "mean(INCOME)", i);
  }
  EXPECT_EQ(r.recorded(), 30u);

  std::vector<FlightEvent> events = r.SnapshotEvents();
  ASSERT_EQ(events.size(), 8u);
  // The surviving window is the newest 8 events, oldest → newest, with
  // contiguous sequence numbers ending at the last one recorded.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 22u + i);
    EXPECT_EQ(events[i].a, int64_t(22 + i));
    EXPECT_EQ(events[i].kind, FlightEventKind::kCacheHit);
    EXPECT_STREQ(events[i].label, "mean(INCOME)");
  }
}

TEST(FlightRecorderTest, DisabledIsInvisible) {
  FlightRecorder r(8);
  r.set_enabled(false);
  r.Record(FlightEventKind::kUpdate, "v.INCOME", 1, 2);
  EXPECT_EQ(r.recorded(), 0u);
  EXPECT_TRUE(r.SnapshotEvents().empty());
  r.set_enabled(true);
  r.Record(FlightEventKind::kUpdate, "v.INCOME", 1, 2);
  EXPECT_EQ(r.recorded(), 1u);
}

TEST(FlightRecorderTest, LongLabelsTruncateWithNulTerminator) {
  FlightRecorder r(4);
  std::string long_label(200, 'q');
  r.Record(FlightEventKind::kQueryEnd, long_label);
  std::vector<FlightEvent> events = r.SnapshotEvents();
  ASSERT_EQ(events.size(), 1u);
  std::string got = events[0].label;
  EXPECT_LT(got.size(), sizeof(events[0].label));
  EXPECT_EQ(got, std::string(got.size(), 'q'));
}

TEST(FlightRecorderTest, SamplingNeverDropsDiagnosisCriticalKinds) {
  FlightRecorder r(1024);
  r.set_sample_every(4);
  EXPECT_EQ(r.sample_every(), 4u);
  for (int i = 0; i < 64; ++i) {
    r.Record(FlightEventKind::kCacheHit, "hot");       // samplable
    r.Record(FlightEventKind::kFaultInjected, "fault", i);  // never sampled
  }
  EXPECT_GT(r.sampled_out(), 0u);

  size_t faults = 0, hits = 0;
  for (const FlightEvent& e : r.SnapshotEvents()) {
    if (e.kind == FlightEventKind::kFaultInjected) ++faults;
    if (e.kind == FlightEventKind::kCacheHit) ++hits;
  }
  EXPECT_EQ(faults, 64u) << "fault events must survive sampling";
  EXPECT_LT(hits, 64u) << "samplable events should be thinned";
  EXPECT_GT(hits, 0u);
}

TEST(FlightRecorderTest, DumpJsonCarriesReasonAndEvents) {
  FlightRecorder r(8);
  r.Record(FlightEventKind::kWalCommit, "INCOME", 7, 3, 1.5);
  std::string json = r.DumpJson("unit_test");
  EXPECT_NE(json.find("\"flight\""), std::string::npos);
  EXPECT_NE(json.find("\"reason\": \"unit_test\""), std::string::npos);
  EXPECT_NE(json.find("wal_commit"), std::string::npos);
  EXPECT_NE(json.find("INCOME"), std::string::npos);
}

TEST(FlightRecorderTest, AutoDumpFiresExactlyOnceAcrossThreads) {
  const std::string path = TempPath("flight_once.json");
  std::remove(path.c_str());
  FlightRecorder r(16);
  r.set_auto_dump_path(path);
  r.Record(FlightEventKind::kDataLoss, "page 9", 0, 9);

  std::atomic<int> fired{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      if (r.AutoDumpOnce("data_loss")) fired.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(r.auto_dumps(), 1u);

  std::string dumped = Slurp(path);
  EXPECT_NE(dumped.find("data_loss"), std::string::npos);
  EXPECT_NE(dumped.find("page 9"), std::string::npos);

  // Later triggers are no-ops until Clear() re-arms.
  EXPECT_FALSE(r.AutoDumpOnce("degraded"));
  EXPECT_EQ(r.auto_dumps(), 1u);
  r.Clear();
  EXPECT_TRUE(r.AutoDumpOnce("degraded"));
  EXPECT_EQ(r.auto_dumps(), 2u);
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, UnarmedAutoDumpIsANoOp) {
  FlightRecorder r(8);
  r.Record(FlightEventKind::kDegraded, "wal dead");
  EXPECT_FALSE(r.AutoDumpOnce("degraded"));
  EXPECT_EQ(r.auto_dumps(), 0u);
}

// The seqlock claim: concurrent writers and readers, no locks, no torn
// events. Run under TSan this is the proof the payload-as-relaxed-atomics
// scheme is exact, not merely benign.
TEST(FlightRecorderTest, ConcurrentRecordAndSnapshotStaysCoherent) {
  FlightRecorder r(64);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2000;
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const FlightEvent& e : r.SnapshotEvents()) {
        // A torn slot would pair the wrong kind with the wrong payload.
        if (e.kind == FlightEventKind::kCacheHit) {
          EXPECT_EQ(e.b, e.a + 1);
        }
      }
      (void)r.DumpJson("hammer");
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        int64_t v = int64_t(w) * kPerWriter + i;
        r.Record(FlightEventKind::kCacheHit, "hammer(X)", v, v + 1);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  reader.join();

  EXPECT_EQ(r.recorded(), uint64_t(kWriters) * kPerWriter);
  std::vector<FlightEvent> events = r.SnapshotEvents();
  EXPECT_EQ(events.size(), r.capacity());
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
}

// --- workload profiler -----------------------------------------------------

TEST(WorkloadProfilerTest, AdviceFollowsTheSection43Rule) {
  EXPECT_STREQ(WorkloadProfiler::Advice(10, 0), "cache-only");
  EXPECT_STREQ(WorkloadProfiler::Advice(0, 0), "cache-only");
  EXPECT_STREQ(WorkloadProfiler::Advice(8, 2), "maintain");
  EXPECT_STREQ(WorkloadProfiler::Advice(4, 1), "maintain");
  EXPECT_STREQ(WorkloadProfiler::Advice(1, 2), "invalidate");
  EXPECT_STREQ(WorkloadProfiler::Advice(3, 2), "borderline");
}

TEST(WorkloadProfilerTest, HeatmapsAggregateQueriesAndUpdates) {
  WorkloadProfiler p;
  using Outcome = TraceOutcome;
  p.NoteQuery("v", "mean", "INCOME", Outcome::kComputed, 2.0);
  p.NoteQuery("v", "mean", "INCOME", Outcome::kCacheHit, 0.1);
  p.NoteQuery("v", "mean", "INCOME", Outcome::kStaleCacheHit, 0.1);
  p.NoteQuery("v", "median", "INCOME", Outcome::kInferred, 0.2);
  p.NoteQuery("v", "mean", "AGE", Outcome::kError, 0.0);
  p.NoteUpdate("v", "INCOME", 120);
  p.NoteUpdate("v", "INCOME", 30);
  EXPECT_EQ(p.total_queries(), 5u);
  EXPECT_EQ(p.total_updates(), 2u);

  std::string json = p.ReportJson();
  EXPECT_NE(json.find("\"workload\""), std::string::npos);
  EXPECT_NE(json.find("v.mean(INCOME)"), std::string::npos);
  EXPECT_NE(json.find("v.INCOME"), std::string::npos);
  EXPECT_NE(json.find("\"advice\""), std::string::npos);
  // INCOME: 4 accesses vs 2 updates → borderline; AGE: 1 access, 0
  // updates → cache-only.
  EXPECT_NE(json.find("borderline"), std::string::npos);
  EXPECT_NE(json.find("cache-only"), std::string::npos);

  std::string text = p.ReportText(5);
  EXPECT_NE(text.find("INCOME"), std::string::npos);
  EXPECT_NE(text.find("advice"), std::string::npos);

  p.Reset();
  EXPECT_EQ(p.total_queries(), 0u);
}

// --- metrics timeseries ----------------------------------------------------

StatPoint MakePoint(double t_ms, uint64_t seq,
                    std::map<std::string, double> values) {
  StatPoint p;
  p.t_ms = t_ms;
  p.seq = seq;
  p.values = std::move(values);
  return p;
}

TEST(MetricsTimeseriesTest, WindowDropsOldestPastCapacity) {
  MetricsTimeseries ts(4);
  for (uint64_t i = 0; i < 10; ++i) {
    ts.Push(MakePoint(double(i), i, {{"c", double(i)}}));
  }
  EXPECT_EQ(ts.size(), 4u);
  EXPECT_EQ(ts.total_pushed(), 10u);
  std::string json = ts.DumpJson();
  EXPECT_NE(json.find("\"dropped\": 6"), std::string::npos);
}

TEST(MetricsTimeseriesTest, DeltasAndRatesDeriveFromCanonicalKeys) {
  // Keys are flattened DumpMetrics paths; rates sum every view and
  // every scan device (the WAL device's reads are not scan reads).
  MetricsTimeseries ts(8, {"devices.tape.io.bytes_read",
                           "devices.disk.io.bytes_read"});
  ts.Push(MakePoint(0, 0,
                    {{"views.a.summary_db.lookups", 6},
                     {"views.b.summary_db.lookups", 4},
                     {"views.a.summary_db.hits", 5},
                     {"devices.disk.io.bytes_read", 0},
                     {"devices.wal.io.bytes_read", 0},
                     {"durability.wal_bytes_appended", 100},
                     {"durability.wal_records_appended", 1}}));
  ts.Push(MakePoint(1000, 5,
                    {{"views.a.summary_db.lookups", 16},
                     {"views.b.summary_db.lookups", 14},
                     {"views.a.summary_db.hits", 20},
                     {"devices.tape.io.bytes_read", 1000000},
                     {"devices.disk.io.bytes_read", 1000000},
                     {"devices.wal.io.bytes_read", 5000000},
                     {"durability.wal_bytes_appended", 500},
                     {"durability.wal_records_appended", 3}}));
  std::string json = ts.DumpJson();
  // Δlookups=20, Δhits=15 → hit rate 0.75; 2 MB of tape+disk reads
  // over 1 s → 2 MB/s; Δbytes=400 over Δcommits=2 → 200 bytes/commit.
  EXPECT_NE(json.find("\"summary_hit_rate\": 0.75"), std::string::npos);
  EXPECT_NE(json.find("\"scan_mb_per_s\": 2,"), std::string::npos);
  EXPECT_NE(json.find("\"wal_bytes_per_commit\": 200"), std::string::npos);
  EXPECT_NE(json.find("\"from_seq\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"to_seq\": 5"), std::string::npos);
}

TEST(MetricsTimeseriesTest, BackwardCountersClampToZero) {
  MetricsTimeseries ts(4);
  ts.Push(MakePoint(0, 0, {{"c", 100}}));
  ts.Push(MakePoint(10, 1, {{"c", 40}}));  // ResetAll between points
  std::string json = ts.DumpJson();
  EXPECT_NE(json.find("\"c\": 0"), std::string::npos);
  EXPECT_EQ(json.find("-60"), std::string::npos);
}

TEST(MetricsTimeseriesTest, ExposeTextIsPrometheusShaped) {
  MetricsTimeseries ts(4);
  ts.Push(MakePoint(5, 1, {{"summary.hits", 3}, {"dbms.queries", 7}}));
  std::string text = ts.ExposeText();
  EXPECT_NE(text.find("# TYPE statdb_summary_hits gauge"),
            std::string::npos);
  EXPECT_NE(text.find("statdb_summary_hits 3"), std::string::npos);
  EXPECT_NE(text.find("statdb_dbms_queries 7"), std::string::npos);
  // Empty window renders a comment line rather than crashing.
  MetricsTimeseries empty(2);
  EXPECT_NE(empty.ExposeText().find("no snapshots"), std::string::npos);
}

// --- Dbms integration ------------------------------------------------------

class FlightDbmsTest : public ::testing::Test {
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
    opts.rows = 500;
    Rng rng(99);
    auto data = GenerateCensusMicrodata(opts, &rng);
    STATDB_ASSERT_OK(data);
    raw_ = std::move(data).value();
  }

  std::unique_ptr<StatisticalDbms> OpenDbms() {
    auto db = std::make_unique<StatisticalDbms>(storage_.get());
    EXPECT_TRUE(db->EnableDurability("wal").ok());
    EXPECT_TRUE(db->LoadRawDataSet("census", raw_, "synthetic").ok());
    ViewDefinition def;
    def.source = "census";
    EXPECT_TRUE(
        db->CreateView("v", def, MaintenancePolicy::kIncremental).ok());
    return db;
  }

  static UpdateSpec Raise() {
    UpdateSpec spec;
    spec.predicate = Lt(Col("AGE"), Lit(int64_t{40}));
    spec.column = "INCOME";
    spec.value = Mul(Col("INCOME"), Lit(1.1));
    spec.description = "raise";
    return spec;
  }

  static size_t CountKind(const std::vector<FlightEvent>& events,
                          FlightEventKind kind) {
    size_t n = 0;
    for (const FlightEvent& e : events) {
      if (e.kind == kind) ++n;
    }
    return n;
  }

  std::unique_ptr<StorageManager> storage_;
  FaultInjectingDevice* disk_ = nullptr;
  FaultInjectingDevice* wal_ = nullptr;
  Table raw_;
};

TEST_F(FlightDbmsTest, HotPathsFeedTheRecorderProfilerAndTimeseries) {
  auto db = OpenDbms();
  db->EnableTimeseries(1);

  STATDB_ASSERT_OK(db->Query("v", "mean", "INCOME"));
  STATDB_ASSERT_OK(db->Query("v", "mean", "INCOME"));  // cache hit
  STATDB_ASSERT_OK(db->Update("v", Raise()));
  QueryOptions stale;
  stale.allow_stale = true;
  STATDB_ASSERT_OK(db->Query("v", "mean", "INCOME", {}, stale));

  std::vector<FlightEvent> events = db->flight().SnapshotEvents();
  EXPECT_GT(CountKind(events, FlightEventKind::kQueryBegin), 0u);
  EXPECT_GT(CountKind(events, FlightEventKind::kQueryEnd), 0u);
  EXPECT_GT(CountKind(events, FlightEventKind::kCacheHit), 0u);
  EXPECT_EQ(CountKind(events, FlightEventKind::kUpdate), 1u);
  EXPECT_GT(CountKind(events, FlightEventKind::kWalCommit), 0u);

  const std::string workload = db->workload_profiler().ReportJson();
  EXPECT_NE(workload.find("v.mean(INCOME)"), std::string::npos);
  EXPECT_NE(workload.find("v.INCOME"), std::string::npos);
  const std::string top = db->workload_profiler().ReportText();
  EXPECT_NE(top.find("INCOME"), std::string::npos);

  // EnableTimeseries(1) ticked a baseline, the update ticked a delta.
  EXPECT_GE(db->timeseries().size(), 2u);
  const std::string ts = db->timeseries().DumpJson();
  EXPECT_NE(ts.find("\"timeseries\""), std::string::npos);
  EXPECT_NE(ts.find("deltas"), std::string::npos);
  // Points are the flattened DumpMetrics walk.
  EXPECT_NE(ts.find("\"views.v.summary_db.lookups\""), std::string::npos);
  EXPECT_NE(ts.find("\"registry.counters.slo.update.total\""),
            std::string::npos);
  EXPECT_NE(ts.find("summary_hit_rate"), std::string::npos);
  const std::string prom = db->ExposeText();
  EXPECT_NE(prom.find("# TYPE statdb_"), std::string::npos);
}

TEST_F(FlightDbmsTest, RecoveryLeavesAFlightTrail) {
  {
    auto db = OpenDbms();
    STATDB_ASSERT_OK(db->Query("v", "mean", "INCOME"));
    STATDB_ASSERT_OK(db->Update("v", Raise()));
  }
  disk_->CutPower();
  wal_->CutPower();
  disk_->ClearFaults();
  wal_->ClearFaults();

  auto db2 = std::make_unique<StatisticalDbms>(storage_.get());
  STATDB_ASSERT_OK(db2->EnableDurability("wal"));
  STATDB_ASSERT_OK(db2->Recover());

  std::vector<FlightEvent> events = db2->flight().SnapshotEvents();
  EXPECT_GE(CountKind(events, FlightEventKind::kRecoveryStep), 3u)
      << "wal_scan, redo_replay, manifest_apply at minimum";
  bool saw_wal_scan = false;
  for (const FlightEvent& e : events) {
    if (e.kind == FlightEventKind::kRecoveryStep &&
        std::string(e.label) == "wal_scan") {
      saw_wal_scan = true;
      EXPECT_GT(e.a, 0) << "records were replayed";
    }
  }
  EXPECT_TRUE(saw_wal_scan);
}

TEST_F(FlightDbmsTest, DegradedModeDumpsTheBlackBoxExactlyOnce) {
  const std::string path = TempPath("flight_degraded.json");
  std::remove(path.c_str());

  auto db = OpenDbms();
  db->flight().set_auto_dump_path(path);
  STATDB_ASSERT_OK(db->Query("v", "mean", "INCOME"));

  FaultSchedule death;
  death.events.push_back({FaultKind::kPermanentFailure, /*on_write=*/true,
                          wal_->write_count() + 1, 0});
  wal_->set_schedule(death);
  EXPECT_FALSE(db->Update("v", Raise()).ok());
  EXPECT_TRUE(db->degraded());
  EXPECT_EQ(db->flight().auto_dumps(), 1u);

  std::string dumped = Slurp(path);
  EXPECT_NE(dumped.find("\"reason\": \"degraded\""), std::string::npos);
  EXPECT_NE(dumped.find("degraded"), std::string::npos);
  EXPECT_NE(dumped.find("\"slow_traces\""), std::string::npos);

  // A second rejected mutation must not dump again.
  EXPECT_FALSE(db->Update("v", Raise()).ok());
  EXPECT_EQ(db->flight().auto_dumps(), 1u);
  std::remove(path.c_str());
}

TEST_F(FlightDbmsTest, PoolRetriesRecordFromWorkerThreads) {
  // Transient faults across early disk I/O: the pool's retry loop runs
  // on QueryParallel's worker threads, each Record()ing kIoRetry into
  // the shared ring while the main thread queries — the TSan-facing
  // integration hammer.
  FaultSchedule flaky;
  for (uint64_t n = 1; n <= 6; ++n) {
    flaky.events.push_back(
        {FaultKind::kTransientError, /*on_write=*/(n % 2 == 0), n, 0});
  }
  disk_->set_schedule(flaky);

  auto db = OpenDbms();
  QueryOptions opts;
  opts.cache_result = false;
  auto q = db->QueryParallel("v", "mean", "INCOME", {}, opts, 4);
  STATDB_ASSERT_OK(q);
  for (int i = 0; i < 4; ++i) {
    STATDB_ASSERT_OK(
        db->QueryParallel("v", "variance", "INCOME", {}, opts, 4));
  }

  std::vector<FlightEvent> events = db->flight().SnapshotEvents();
  size_t retries = CountKind(events, FlightEventKind::kIoRetry);
  size_t faults = CountKind(events, FlightEventKind::kFaultInjected);
  EXPECT_GT(retries + faults, 0u)
      << "injected transients should leave a flight trail";
  std::string json = db->flight().DumpJson("test");
  EXPECT_NE(json.find("\"flight\""), std::string::npos);
}

TEST_F(FlightDbmsTest, MultiAttributeQueriesRecordCacheVerdicts) {
  auto db = OpenDbms();
  for (int i = 0; i < 2; ++i) {
    STATDB_ASSERT_OK(db->QueryBivariate("v", "correlation", "AGE", "INCOME"));
    STATDB_ASSERT_OK(db->QueryGroupCompare("v", "INCOME", "SEX", 0, 1));
  }
  STATDB_ASSERT_OK(db->Update("v", Raise()));
  QueryOptions stale;
  stale.allow_stale = true;
  STATDB_ASSERT_OK(db->QueryGroupCompare("v", "INCOME", "SEX", 0, 1, stale));

  std::vector<std::string> verdicts;
  for (const FlightEvent& e : db->flight().SnapshotEvents()) {
    if (e.kind == FlightEventKind::kCacheMiss ||
        e.kind == FlightEventKind::kCacheHit ||
        e.kind == FlightEventKind::kStaleServe) {
      verdicts.push_back(std::string(FlightEventKindName(e.kind)) + " " +
                         e.label);
    }
  }
  const std::vector<std::string> want = {
      "cache_miss correlation(AGE,INCOME)", "cache_miss welch_t(INCOME,SEX)",
      "cache_hit correlation(AGE,INCOME)", "cache_hit welch_t(INCOME,SEX)",
      "stale_serve welch_t(INCOME,SEX)"};
  EXPECT_EQ(verdicts, want);
}

TEST_F(FlightDbmsTest, QueryManyTagsBatchIndices) {
  auto db = OpenDbms();
  std::vector<QueryRequest> batch = {{"mean", "AGE", {}},
                                     {"max", "AGE", {}},
                                     {"mean", "INCOME", {}}};
  STATDB_ASSERT_OK(db->QueryMany("v", batch, {}, 2));

  std::vector<FlightEvent> events = db->flight().SnapshotEvents();
  std::vector<int64_t> begin_indices;
  for (const FlightEvent& e : events) {
    if (e.kind == FlightEventKind::kQueryBegin) {
      begin_indices.push_back(e.a);
    }
  }
  ASSERT_EQ(begin_indices.size(), 3u);
  EXPECT_EQ(begin_indices[0], 0);
  EXPECT_EQ(begin_indices[1], 1);
  EXPECT_EQ(begin_indices[2], 2);
  // The profiler saw each request exactly once.
  EXPECT_EQ(db->workload_profiler().total_queries(), 3u);
}

}  // namespace
}  // namespace statdb
