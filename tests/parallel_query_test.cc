// Parallel queries on the DBMS's one exec pool (DESIGN.md §9.1, §14).
// A histogram on column chunks is the one-worker answer bit for bit at
// every worker count and batch shape, while an RLE column keeps the
// compressed route; a constant column is exactly constant at w ≥ 2; a
// scan whose members need only count and extremes equals the registry;
// finishes fanned out on the pool keep the serial answers, inserts and
// error order; a batch's pool ledger is exact as soon as it returns; and
// I/O a worker does on a query's behalf carries that query's trace id.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/dbms.h"
#include "fault/fault.h"
#include "flight/flight_recorder.h"
#include "gtest/gtest.h"
#include "obs/trace.h"
#include "tests/test_util.h"

namespace statdb {
namespace {

/// INCOME: mostly-distinct reals with missing cells; AGE: small ints;
/// CONST: 0.1 in every row, which no lane sum reproduces exactly;
/// RUN: long runs of one code, so the view keeps an RLE sidecar.
Table MakeTable(size_t rows) {
  Table t{Schema({Attribute::Numeric("INCOME"),
                  Attribute::Numeric("AGE", DataType::kInt64),
                  Attribute::Numeric("CONST"),
                  Attribute::Numeric("RUN", DataType::kInt64)})};
  Rng rng(2307);
  for (size_t i = 0; i < rows; ++i) {
    Row row = {rng.Bernoulli(0.07)
                   ? Value::Null()
                   : Value::Real(rng.Normal(41000.0, 9000.0)),
               Value::Int(rng.UniformInt(16, 90)), Value::Real(0.1),
               Value::Int(static_cast<int64_t>(i / 400))};
    EXPECT_TRUE(t.AppendRow(std::move(row)).ok());
  }
  return t;
}

class ParallelQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage_ = MakeTapeDiskStorage();
    dbms_ = std::make_unique<StatisticalDbms>(storage_.get());
    STATDB_ASSERT_OK(dbms_->LoadRawDataSet("census", MakeTable(20000)));
    ViewDefinition def;
    def.source = "census";
    STATDB_ASSERT_OK(
        dbms_->CreateView("v", def, MaintenancePolicy::kInvalidate)
            .status());
    no_cache_.cache_result = false;
  }

  uint64_t Counter(const char* name) {
    return dbms_->metrics().GetCounter(name)->Get();
  }

  std::unique_ptr<StorageManager> storage_;
  std::unique_ptr<StatisticalDbms> dbms_;
  QueryOptions no_cache_;
};

TEST_F(ParallelQueryTest, HistogramsAreTheOneWorkerAnswerAtEveryWorkerCount) {
  for (double buckets : {20.0, 997.0}) {
    const FunctionParams params = FunctionParams().Set("buckets", buckets);
    auto serial = dbms_->Query("v", "histogram", "INCOME", params, no_cache_);
    STATDB_ASSERT_OK(serial);
    const SummaryResult& want = serial->result;
    auto mode = dbms_->Query("v", "mode", "INCOME", {}, no_cache_);
    STATDB_ASSERT_OK(mode);
    for (size_t w : {size_t{2}, size_t{4}}) {
      auto parallel = dbms_->QueryParallel("v", "histogram", "INCOME", params,
                                           no_cache_, w);
      STATDB_ASSERT_OK(parallel);
      EXPECT_EQ(parallel->result, want) << "w = " << w;
      // Beside mode, which does merge hashed counts at w >= 2, and beside
      // a holistic function, which gathers anyway.
      for (const char* other : {"mode", "median"}) {
        auto many = dbms_->QueryMany(
            "v",
            {{"histogram", "INCOME", params}, {other, "INCOME", {}}},
            no_cache_, w);
        STATDB_ASSERT_OK(many);
        EXPECT_EQ(many->at(0).result, want) << other << ", w = " << w;
        if (std::string(other) == "mode") {
          EXPECT_EQ(many->at(1).result, mode->result) << "w = " << w;
        }
      }
    }
  }
}

TEST_F(ParallelQueryTest, RleColumnHistogramsStayOnTheCompressedRoute) {
  auto view = dbms_->GetView("v");
  STATDB_ASSERT_OK(view);
  ASSERT_NE((*view)->CompressedSidecar("RUN"), nullptr);
  auto serial = dbms_->Query("v", "histogram", "RUN", {}, no_cache_);
  STATDB_ASSERT_OK(serial);
  for (size_t w : {size_t{2}, size_t{4}}) {
    const uint64_t before = Counter("dbms.scan.compressed_domain");
    auto parallel =
        dbms_->QueryParallel("v", "histogram", "RUN", {}, no_cache_, w);
    STATDB_ASSERT_OK(parallel);
    EXPECT_EQ(Counter("dbms.scan.compressed_domain"), before + 1);
    EXPECT_EQ(parallel->result, serial->result) << "w = " << w;
  }
}

TEST_F(ParallelQueryTest, ConstantColumnIsExactlyConstantAtEveryWorkerCount) {
  // Pin the column route: the kernels are what is under test.
  dbms_->set_compressed_scan_enabled(false);
  auto serial_r = dbms_->QueryBivariate("v", "correlation", "CONST",
                                        "INCOME", no_cache_);
  auto serial_fit = dbms_->QueryBivariate("v", "regression", "CONST",
                                          "INCOME", no_cache_);
  ASSERT_FALSE(serial_r.ok());
  ASSERT_FALSE(serial_fit.ok());
  for (size_t w : {size_t{1}, size_t{2}, size_t{4}}) {
    for (const char* fn : {"variance", "stddev"}) {
      auto got = dbms_->QueryParallel("v", fn, "CONST", {}, no_cache_, w);
      STATDB_ASSERT_OK(got);
      EXPECT_EQ(got->result, SummaryResult::Scalar(0.0))
          << fn << ", w = " << w;
    }
    auto mean = dbms_->QueryParallel("v", "mean", "CONST", {}, no_cache_, w);
    STATDB_ASSERT_OK(mean);
    EXPECT_EQ(mean->result, SummaryResult::Scalar(0.1)) << "w = " << w;
    auto r = dbms_->QueryBivariateParallel("v", "correlation", "CONST",
                                           "INCOME", no_cache_, w);
    ASSERT_FALSE(r.ok()) << "w = " << w;
    EXPECT_EQ(r.status().ToString(), serial_r.status().ToString());
    auto fit = dbms_->QueryBivariateParallel("v", "regression", "CONST",
                                             "INCOME", no_cache_, w);
    ASSERT_FALSE(fit.ok()) << "w = " << w;
    EXPECT_EQ(fit.status().ToString(), serial_fit.status().ToString());
    // A constant y is fine: r² is 1 and the slope exactly 0.
    auto flat = dbms_->QueryBivariateParallel("v", "covariance", "INCOME",
                                              "CONST", no_cache_, w);
    STATDB_ASSERT_OK(flat);
    EXPECT_EQ(flat->result, SummaryResult::Scalar(0.0)) << "w = " << w;
  }
}

TEST_F(ParallelQueryTest, SharedExtremesScanEqualsTheRegistry) {
  dbms_->set_compressed_scan_enabled(false);
  const std::vector<double> column =
      (*dbms_->GetView("v"))->ReadNumericColumn("INCOME").value();
  const FunctionRegistry& fns = dbms_->management_db().functions();
  auto many = dbms_->QueryMany("v",
                               {{"count", "INCOME", {}},
                                {"min", "INCOME", {}},
                                {"max", "INCOME", {}},
                                {"range", "INCOME", {}}},
                               no_cache_, 1);
  STATDB_ASSERT_OK(many);
  const char* fn[] = {"count", "min", "max", "range"};
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(many->at(i).result, fns.Compute(fn[i], column, {}).value())
        << fn[i];
  }
}

TEST_F(ParallelQueryTest, FannedOutFinishesKeepTheSerialAnswersAndOrder) {
  const std::vector<QueryRequest> batch = {
      {"quantile", "INCOME", FunctionParams().Set("p", 0.3)},
      {"histogram", "INCOME", FunctionParams().Set("buckets", 64)},
      {"trimmed_mean", "INCOME",
       FunctionParams().Set("lo", 0.1).Set("hi", 0.9)},
      {"median", "INCOME", {}}};
  auto serial = dbms_->QueryMany("v", batch, no_cache_, 1);
  STATDB_ASSERT_OK(serial);
  CollectingTraceSink sink;
  dbms_->set_trace_sink(&sink);
  auto fanned = dbms_->QueryMany("v", batch, no_cache_, 2);
  dbms_->set_trace_sink(nullptr);
  STATDB_ASSERT_OK(fanned);
  // Every function here gathers, so w = 2 is bit for bit w = 1.
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(fanned->at(i).result, serial->at(i).result) << i;
  }
  // One compute span per request, and together they never claim more
  // time than the call took.
  std::vector<QueryTrace> traces = sink.Take();
  ASSERT_EQ(traces.size(), 1u);
  size_t computes = 0;
  for (size_t s = 0; s < traces[0].size(); ++s) {
    if (traces[0].span(s).kind == SpanKind::kCompute) ++computes;
  }
  EXPECT_EQ(computes, batch.size());
  EXPECT_LE(traces[0].SpanSumMs(), traces[0].total_ms());

  // The first failing request's error wins; requests before it are
  // inserted, requests after it are not, as in the serial loop.
  const std::vector<QueryRequest> failing = {
      {"median", "INCOME", {}},
      {"histogram", "INCOME", FunctionParams().Set("buckets", 0.5)},
      {"quantile", "INCOME", FunctionParams().Set("p", 0.7)}};
  auto want = dbms_->QueryMany("v", failing, no_cache_, 1);
  ASSERT_FALSE(want.ok());
  auto got = dbms_->QueryMany("v", failing, {}, 2);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().ToString(), want.status().ToString());
  auto before = dbms_->Query("v", "median", "INCOME");
  STATDB_ASSERT_OK(before);
  EXPECT_EQ(before->source, AnswerSource::kCacheHit);
  auto after = dbms_->Query("v", "quantile", "INCOME",
                            FunctionParams().Set("p", 0.7));
  STATDB_ASSERT_OK(after);
  EXPECT_EQ(after->source, AnswerSource::kComputed);
}

TEST_F(ParallelQueryTest, BatchLedgerIsExactWhenTheCallReturns) {
  auto got = dbms_->QueryParallel("v", "mean", "INCOME", {}, no_cache_, 2);
  STATDB_ASSERT_OK(got);
  // No drain, no join: a task is counted before its future resolves.
  const uint64_t submitted = Counter("exec.pool.tasks_submitted");
  EXPECT_GT(submitted, 0u);
  EXPECT_LE(submitted, 2u) << "at most `workers` claimers per pass";
  EXPECT_EQ(Counter("exec.pool.tasks_executed"), submitted);
  EXPECT_EQ(Counter("exec.pool.tasks_rejected"), 0u);
  EXPECT_GT(dbms_->metrics().GetHistogram("exec.pool.task_ms")->Count(), 0u);
}

TEST(ParallelQueryTraceTest, WorkerIoRetriesCarryTheQueryTraceId) {
  auto sm = std::make_unique<StorageManager>();
  STATDB_ASSERT_OK(sm->AddDevice("tape", DeviceCostModel::Tape(), 256));
  auto disk =
      std::make_unique<FaultInjectingDevice>("disk", DeviceCostModel::Memory());
  FaultInjectingDevice* disk_ptr = disk.get();
  // Far fewer frames than the column has pages: the scan reads the
  // device on the workers.
  STATDB_ASSERT_OK(sm->AdoptDevice("disk", std::move(disk), 8));
  StatisticalDbms dbms(sm.get());
  STATDB_ASSERT_OK(dbms.LoadRawDataSet("census", MakeTable(20000)));
  ViewDefinition def;
  def.source = "census";
  STATDB_ASSERT_OK(
      dbms.CreateView("v", def, MaintenancePolicy::kInvalidate).status());

  // Transient failures on reads well inside the scan; the pool's retry
  // absorbs each one.
  FaultSchedule flaky;
  const uint64_t reads = disk_ptr->read_count();
  for (uint64_t k : {10, 25, 33}) {
    flaky.events.push_back(
        {FaultKind::kTransientError, /*on_write=*/false, reads + k, 0});
  }
  disk_ptr->set_schedule(flaky);
  dbms.flight().Clear();
  QueryOptions no_cache;
  no_cache.cache_result = false;
  STATDB_ASSERT_OK(
      dbms.QueryParallel("v", "mean", "INCOME", {}, no_cache, 2).status());
  ASSERT_EQ(disk_ptr->counters().transient_errors, 3u);

  uint64_t query_trace = 0;
  size_t retries = 0;
  for (const FlightEvent& e : dbms.flight().SnapshotEvents()) {
    if (e.kind == FlightEventKind::kQueryBegin) query_trace = e.trace;
    if (e.kind != FlightEventKind::kIoRetry) continue;
    ++retries;
    EXPECT_NE(e.trace, 0u);
    EXPECT_EQ(e.trace, query_trace);
  }
  ASSERT_NE(query_trace, 0u);
  EXPECT_EQ(retries, 3u);
}

}  // namespace
}  // namespace statdb
