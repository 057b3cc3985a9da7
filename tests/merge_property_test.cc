// Merge-equivalence property tests for the parallel execution layer:
// partial states merged across randomized shard splits must reproduce
// the sequential computation — bitwise for counts/min/max/value-count
// answers, to 1e-9 relative for the floating-point moments — and the
// end-to-end QueryParallel/QueryMany paths must answer exactly like
// Query while leaving an identical Summary Database behind.

#include "exec/chunked_scanner.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "gtest/gtest.h"
#include "check/check.h"
#include "core/dbms.h"
#include "stats/partial_stats.h"
#include "exec/thread_pool.h"
#include "relational/datagen.h"
#include "stats/correlation.h"
#include "stats/descriptive.h"
#include "stats/histogram.h"
#include "stats/regression.h"
#include "storage/column_file.h"
#include "tests/test_util.h"

namespace statdb {
namespace {

// --- randomized shard machinery --------------------------------------------

std::vector<double> RandomColumn(Rng* rng, size_t n, bool integer_valued) {
  std::vector<double> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(integer_valued
                      ? double(rng->UniformInt(-50, 50))
                      : rng->Normal(100.0, 25.0));
  }
  return out;
}

/// Splits `data` into `shards` contiguous pieces at random cut points.
/// Empty shards are allowed (adjacent equal cuts), including the
/// degenerate all-in-one-shard split.
std::vector<std::vector<double>> RandomSplit(Rng* rng,
                                             const std::vector<double>& data,
                                             size_t shards) {
  std::vector<size_t> cuts = {0, data.size()};
  for (size_t i = 1; i < shards; ++i) {
    cuts.push_back(size_t(rng->UniformInt(0, int64_t(data.size()))));
  }
  std::sort(cuts.begin(), cuts.end());
  std::vector<std::vector<double>> out;
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    out.emplace_back(data.begin() + int64_t(cuts[i]),
                     data.begin() + int64_t(cuts[i + 1]));
  }
  return out;
}

void ExpectRel(double got, double want, double rel) {
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got));
    return;
  }
  EXPECT_NEAR(got, want, rel * std::max(1.0, std::abs(want)))
      << "got " << got << " want " << want;
}

// --- DescriptiveStats::Merge ------------------------------------------------

TEST(MergePropertyTest, DescriptiveMergeMatchesSequential) {
  Rng rng(7001);
  for (int trial = 0; trial < 200; ++trial) {
    size_t n = size_t(rng.UniformInt(0, 400));
    bool integer_valued = rng.Bernoulli(0.5);
    std::vector<double> data = RandomColumn(&rng, n, integer_valued);
    DescriptiveStats serial = ComputeDescriptive(data);

    size_t shards = size_t(rng.UniformInt(1, 8));
    DescriptiveStats merged;
    for (const auto& shard : RandomSplit(&rng, data, shards)) {
      merged.Merge(ComputeDescriptive(shard));
    }

    ASSERT_EQ(merged.count, serial.count);
    if (serial.count == 0) continue;
    // min/max compare the same doubles in a different order — bitwise.
    EXPECT_EQ(merged.min, serial.min);
    EXPECT_EQ(merged.max, serial.max);
    if (integer_valued) {
      // Small-integer sums are exact in double, any association order.
      EXPECT_EQ(merged.sum, serial.sum);
    } else {
      ExpectRel(merged.sum, serial.sum, 1e-9);
    }
    ExpectRel(merged.mean, serial.mean, 1e-9);
    ExpectRel(merged.Variance(), serial.Variance(), 1e-9);
  }
}

TEST(MergePropertyTest, DescriptiveMergeEdgeCases) {
  DescriptiveStats empty;
  DescriptiveStats one = ComputeDescriptive({42.0});
  // empty + x == x; x + empty == x.
  DescriptiveStats m = empty;
  m.Merge(one);
  EXPECT_EQ(m.count, 1u);
  EXPECT_EQ(m.mean, 42.0);
  m.Merge(empty);
  EXPECT_EQ(m.count, 1u);
  EXPECT_EQ(m.min, 42.0);
  EXPECT_EQ(m.max, 42.0);

  // All data in one shard, every other shard empty: bitwise identical to
  // the sequential state (Merge adopts the only non-empty operand).
  std::vector<double> data = {3.0, 1.0, 2.0, 2.0};
  DescriptiveStats serial = ComputeDescriptive(data);
  DescriptiveStats lop;
  lop.Merge(DescriptiveStats{});
  lop.Merge(serial);
  lop.Merge(DescriptiveStats{});
  EXPECT_EQ(lop.count, serial.count);
  EXPECT_EQ(lop.sum, serial.sum);
  EXPECT_EQ(lop.mean, serial.mean);
  EXPECT_EQ(lop.m2, serial.m2);
}

// --- ComomentStats ----------------------------------------------------------

TEST(MergePropertyTest, ComomentMergeMatchesSerialBivariates) {
  Rng rng(7002);
  for (int trial = 0; trial < 100; ++trial) {
    size_t n = size_t(rng.UniformInt(2, 300));
    std::vector<double> xs, ys;
    for (size_t i = 0; i < n; ++i) {
      double x = rng.Normal(0.0, 10.0);
      xs.push_back(x);
      ys.push_back(2.5 * x + rng.Normal(0.0, 3.0));
    }

    // Split the pair sequence and merge per-shard co-moment states.
    size_t shards = size_t(rng.UniformInt(1, 6));
    std::vector<size_t> cuts = {0, n};
    for (size_t i = 1; i < shards; ++i) {
      cuts.push_back(size_t(rng.UniformInt(0, int64_t(n))));
    }
    std::sort(cuts.begin(), cuts.end());
    ComomentStats merged;
    for (size_t i = 0; i + 1 < cuts.size(); ++i) {
      std::vector<double> sx(xs.begin() + int64_t(cuts[i]),
                             xs.begin() + int64_t(cuts[i + 1]));
      std::vector<double> sy(ys.begin() + int64_t(cuts[i]),
                             ys.begin() + int64_t(cuts[i + 1]));
      merged.Merge(ComputeComoments(sx, sy));
    }

    ASSERT_EQ(merged.n, n);
    auto cov = merged.Covariance();
    auto r = merged.PearsonR();
    auto fit = merged.Fit();
    STATDB_ASSERT_OK(cov);
    STATDB_ASSERT_OK(r);
    STATDB_ASSERT_OK(fit);
    ExpectRel(cov.value(), Covariance(xs, ys).value(), 1e-9);
    ExpectRel(r.value(), PearsonR(xs, ys).value(), 1e-9);
    LinearFit serial_fit = FitLinear(xs, ys).value();
    ExpectRel(fit.value().slope, serial_fit.slope, 1e-9);
    ExpectRel(fit.value().intercept, serial_fit.intercept, 1e-9);
    ExpectRel(fit.value().r_squared, serial_fit.r_squared, 1e-9);
    ExpectRel(fit.value().residual_stddev, serial_fit.residual_stddev,
              1e-9);
  }
}

TEST(MergePropertyTest, ComomentFinishersMirrorSerialDomainErrors) {
  ComomentStats one;
  one.Add(1.0, 2.0);
  EXPECT_FALSE(one.Covariance().ok());
  EXPECT_FALSE(one.PearsonR().ok());
  EXPECT_FALSE(one.Fit().ok());
  EXPECT_EQ(one.Covariance().status().ToString(),
            Covariance({1.0}, {2.0}).status().ToString());

  ComomentStats constant_x;
  constant_x.Add(5.0, 1.0);
  constant_x.Add(5.0, 2.0);
  EXPECT_FALSE(constant_x.PearsonR().ok());
  EXPECT_EQ(constant_x.PearsonR().status().ToString(),
            PearsonR({5.0, 5.0}, {1.0, 2.0}).status().ToString());
  EXPECT_EQ(constant_x.Fit().status().ToString(),
            FitLinear({5.0, 5.0}, {1.0, 2.0}).status().ToString());
}

// --- ValueCounts ------------------------------------------------------------

TEST(MergePropertyTest, ValueCountsMergeMatchesModeAndDistinct) {
  Rng rng(7003);
  for (int trial = 0; trial < 100; ++trial) {
    // Narrow value range forces heavy ties; the serial Mode's smallest-
    // winner tie-break must survive the shard merge bitwise.
    size_t n = size_t(rng.UniformInt(1, 250));
    std::vector<double> data;
    for (size_t i = 0; i < n; ++i) {
      data.push_back(double(rng.UniformInt(-5, 5)));
    }
    ValueCounts merged;
    for (const auto& shard :
         RandomSplit(&rng, data, size_t(rng.UniformInt(1, 7)))) {
      ValueCounts vc;
      for (double x : shard) vc.Add(x);
      merged.Merge(vc);
    }
    EXPECT_EQ(merged.Distinct(), CountDistinct(data));
    auto mode = merged.ModeValue();
    STATDB_ASSERT_OK(mode);
    EXPECT_EQ(mode.value(), Mode(data).value());
  }
}

TEST(MergePropertyTest, ValueCountsEmptyModeErrorsLikeSerial) {
  ValueCounts empty;
  EXPECT_EQ(empty.Distinct(), 0u);
  auto mode = empty.ModeValue();
  ASSERT_FALSE(mode.ok());
  EXPECT_EQ(mode.status().ToString(),
            Mode(std::vector<double>{}).status().ToString());
}

// --- Histogram::Merge -------------------------------------------------------

TEST(MergePropertyTest, HistogramMergeUnderFrozenEdgesMatchesSequential) {
  Rng rng(7004);
  for (int trial = 0; trial < 60; ++trial) {
    size_t n = size_t(rng.UniformInt(1, 300));
    std::vector<double> data = RandomColumn(&rng, n, false);
    double lo = *std::min_element(data.begin(), data.end());
    double hi = *std::max_element(data.begin(), data.end());
    if (lo == hi) hi = lo + 1.0;
    size_t buckets = size_t(rng.UniformInt(1, 24));

    Histogram serial = BuildHistogram(data, buckets, lo, hi).value();
    // Shard histograms share the frozen [lo, hi] edges, then merge.
    Histogram merged = BuildHistogram({}, buckets, lo, hi).value();
    for (const auto& shard :
         RandomSplit(&rng, data, size_t(rng.UniformInt(1, 6)))) {
      Histogram part = BuildHistogram(shard, buckets, lo, hi).value();
      STATDB_ASSERT_OK(merged.Merge(part));
    }
    EXPECT_EQ(merged.edges, serial.edges);
    EXPECT_EQ(merged.counts, serial.counts);
    EXPECT_EQ(merged.below, serial.below);
    EXPECT_EQ(merged.above, serial.above);
  }
}

TEST(MergePropertyTest, HistogramMergeRejectsMismatchedEdges) {
  Histogram a = BuildHistogram({1.0, 2.0}, 4, 0.0, 10.0).value();
  Histogram b = BuildHistogram({1.0, 2.0}, 4, 0.0, 11.0).value();
  Histogram c = BuildHistogram({1.0, 2.0}, 5, 0.0, 10.0).value();
  EXPECT_FALSE(a.Merge(b).ok());
  EXPECT_FALSE(a.Merge(c).ok());
}

// --- SplitPageAligned -------------------------------------------------------

TEST(MergePropertyTest, SplitPageAlignedCoversDisjointPageMultiples) {
  Rng rng(7005);
  for (int trial = 0; trial < 200; ++trial) {
    uint64_t rows = uint64_t(rng.UniformInt(0, 20000));
    size_t cpp = size_t(rng.UniformInt(1, 700));
    size_t chunks = size_t(rng.UniformInt(1, 16));
    std::vector<ScanChunk> split = SplitPageAligned(rows, cpp, chunks);
    if (rows == 0) {
      EXPECT_TRUE(split.empty());
      continue;
    }
    ASSERT_FALSE(split.empty());
    EXPECT_LE(split.size(), chunks);
    EXPECT_EQ(split.front().begin, 0u);
    EXPECT_EQ(split.back().end, rows);
    for (size_t i = 0; i < split.size(); ++i) {
      EXPECT_LT(split[i].begin, split[i].end);
      if (i > 0) {
        EXPECT_EQ(split[i].begin, split[i - 1].end);
        // Interior boundaries sit on page multiples, so no two chunks
        // ever touch the same storage page.
        EXPECT_EQ(split[i].begin % cpp, 0u);
      }
    }
  }
}

// --- ParallelScanColumn against a synthetic reader --------------------------

TEST(MergePropertyTest, ParallelScanColumnMatchesSerialOnSyntheticData) {
  Rng rng(7006);
  ThreadPool pool(4);
  for (int trial = 0; trial < 40; ++trial) {
    uint64_t rows = uint64_t(rng.UniformInt(0, 5000));
    std::vector<double> data =
        RandomColumn(&rng, size_t(rows), rng.Bernoulli(0.5));
    ColumnRangeReader reader =
        [&data](uint64_t begin, uint64_t end) -> Result<std::vector<double>> {
      return std::vector<double>(data.begin() + int64_t(begin),
                                 data.begin() + int64_t(end));
    };
    ColumnScanSpec spec;
    spec.want_counts = true;
    spec.keep_values = true;
    auto scan = ParallelScanColumn(rows, /*cells_per_page=*/100, reader,
                                   spec, &pool);
    STATDB_ASSERT_OK(scan);
    DescriptiveStats serial = ComputeDescriptive(data);
    EXPECT_EQ(scan.value().desc.count, serial.count);
    // keep_values gathers chunks in row order: bit-identical column.
    EXPECT_EQ(scan.value().values, data);
    if (rows == 0) continue;
    EXPECT_EQ(scan.value().desc.min, serial.min);
    EXPECT_EQ(scan.value().desc.max, serial.max);
    ExpectRel(scan.value().desc.mean, serial.mean, 1e-9);
    ExpectRel(scan.value().desc.Variance(), serial.Variance(), 1e-9);
    EXPECT_EQ(scan.value().counts.Distinct(), CountDistinct(data));
    EXPECT_EQ(scan.value().counts.ModeValue().value(), Mode(data).value());
  }
}

TEST(MergePropertyTest, ParallelScanSingleElementAndInlineFallback) {
  std::vector<double> data = {3.25};
  ColumnRangeReader reader =
      [&data](uint64_t begin, uint64_t end) -> Result<std::vector<double>> {
    return std::vector<double>(data.begin() + int64_t(begin),
                               data.begin() + int64_t(end));
  };
  ColumnScanSpec spec;
  spec.want_counts = true;
  // Null pool: the scan must run inline and still be correct.
  auto scan = ParallelScanColumn(1, ColumnFile::kCellsPerPage, reader, spec,
                                 nullptr);
  STATDB_ASSERT_OK(scan);
  EXPECT_EQ(scan.value().desc.count, 1u);
  EXPECT_EQ(scan.value().desc.min, 3.25);
  EXPECT_EQ(scan.value().desc.max, 3.25);
  EXPECT_EQ(scan.value().counts.ModeValue().value(), 3.25);
}

// --- end-to-end: QueryParallel vs Query ------------------------------------

class ParallelQueryParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CensusOptions opts;
    opts.rows = 3000;
    Rng rng(97);
    raw_ = GenerateCensusMicrodata(opts, &rng).value();

    serial_storage_ = MakeTapeDiskStorage(256, 2048);
    parallel_storage_ = MakeTapeDiskStorage(256, 2048);
    serial_ = std::make_unique<StatisticalDbms>(serial_storage_.get());
    parallel_ = std::make_unique<StatisticalDbms>(parallel_storage_.get());
    STATDB_ASSERT_OK(serial_->LoadRawDataSet("census", raw_));
    STATDB_ASSERT_OK(parallel_->LoadRawDataSet("census", raw_));
    ViewDefinition def;
    def.source = "census";
    ASSERT_TRUE(
        serial_->CreateView("v", def, MaintenancePolicy::kIncremental).ok());
    ASSERT_TRUE(
        parallel_->CreateView("v", def, MaintenancePolicy::kIncremental)
            .ok());
  }

  std::map<std::string, SummaryResult> DumpSummaries(StatisticalDbms* dbms) {
    std::map<std::string, SummaryResult> out;
    SummaryDatabase* db = dbms->GetSummaryDb("v").value();
    EXPECT_TRUE(db->ForEach([&out](const SummaryEntry& e) {
                    out.emplace(e.key.Encode(), e.result);
                    return Status::OK();
                  }).ok());
    return out;
  }

  Table raw_;
  std::unique_ptr<StorageManager> serial_storage_, parallel_storage_;
  std::unique_ptr<StatisticalDbms> serial_, parallel_;
};

TEST_F(ParallelQueryParityTest, AnswersAndSummaryEntriesMatchSerial) {
  const std::vector<QueryRequest> battery = {
      {"count", "INCOME", {}},     {"sum", "INCOME", {}},
      {"mean", "INCOME", {}},      {"variance", "INCOME", {}},
      {"stddev", "INCOME", {}},    {"min", "INCOME", {}},
      {"max", "INCOME", {}},       {"range", "INCOME", {}},
      {"mode", "AGE", {}},         {"distinct", "AGE", {}},
      {"histogram", "INCOME", {}}, {"median", "INCOME", {}},
      {"quartiles", "INCOME", {}}, {"mode", "INCOME", {}},
      {"trimmed_mean", "INCOME", {}}};

  std::vector<QueryAnswer> serial_answers;
  for (const QueryRequest& r : battery) {
    auto a = serial_->Query("v", r.function, r.attribute, r.params);
    STATDB_ASSERT_OK(a);
    serial_answers.push_back(std::move(a).value());
  }
  auto parallel_answers = parallel_->QueryMany("v", battery, {}, 4);
  STATDB_ASSERT_OK(parallel_answers);
  ASSERT_EQ(parallel_answers.value().size(), battery.size());

  for (size_t i = 0; i < battery.size(); ++i) {
    const QueryAnswer& s = serial_answers[i];
    const QueryAnswer& p = parallel_answers.value()[i];
    EXPECT_EQ(p.source, AnswerSource::kComputed) << battery[i].function;
    EXPECT_TRUE(SummaryResultsApproxEqual(p.result, s.result, 1e-9, 1e-9))
        << battery[i].function << ": parallel " << p.result.ToString()
        << " vs serial " << s.result.ToString();
  }

  // The Summary Databases must hold the same entries under the same keys.
  auto serial_entries = DumpSummaries(serial_.get());
  auto parallel_entries = DumpSummaries(parallel_.get());
  ASSERT_EQ(serial_entries.size(), parallel_entries.size());
  for (const auto& [key, result] : serial_entries) {
    auto it = parallel_entries.find(key);
    ASSERT_NE(it, parallel_entries.end()) << "missing entry " << key;
    EXPECT_TRUE(SummaryResultsApproxEqual(it->second, result, 1e-9, 1e-9))
        << key;
  }

  // And both caches must survive the PR-1 differential oracle against
  // their own base views.
  for (StatisticalDbms* dbms : {serial_.get(), parallel_.get()}) {
    ConcreteView* view = dbms->GetView("v").value();
    ViewOracle oracle;
    oracle.view_version = view->version();
    oracle.read_numeric = [view](const std::string& attr) {
      return view->ReadNumericColumn(attr);
    };
    oracle.read_column = [view](const std::string& attr) {
      return view->ReadColumn(attr);
    };
    CheckReport report;
    STATDB_ASSERT_OK(AuditSummaryAgainstView(
        dbms->GetSummaryDb("v").value(),
        dbms->management_db().functions(), oracle, &report));
    EXPECT_TRUE(report.ok()) << report.ToString();
  }
}

TEST_F(ParallelQueryParityTest, ExactFunctionsAreBitwiseIdentical) {
  // count/min/max compare and count the same doubles in a different
  // order; mode/distinct go through exact value-count maps; median and
  // quartiles run the serial computation on the identically-gathered
  // column. All must be bitwise equal to the serial answers.
  for (const char* fn : {"count", "min", "max", "mode", "distinct",
                         "median", "quartiles"}) {
    auto s = serial_->Query("v", fn, "HOURS_WORKED", {}, {});
    auto p = parallel_->QueryParallel("v", fn, "HOURS_WORKED", {}, {}, 4);
    STATDB_ASSERT_OK(s);
    STATDB_ASSERT_OK(p);
    EXPECT_TRUE(SummaryResultsApproxEqual(p.value().result,
                                          s.value().result, 0.0, 0.0))
        << fn << ": parallel " << p.value().result.ToString()
        << " vs serial " << s.value().result.ToString();
  }
}

TEST_F(ParallelQueryParityTest, SecondBatchHitsTheCacheLikeSerial) {
  std::vector<QueryRequest> reqs = {{"mean", "INCOME", {}},
                                    {"variance", "INCOME", {}}};
  auto first = parallel_->QueryMany("v", reqs, {}, 4);
  STATDB_ASSERT_OK(first);
  auto second = parallel_->QueryMany("v", reqs, {}, 4);
  STATDB_ASSERT_OK(second);
  for (const QueryAnswer& a : second.value()) {
    EXPECT_EQ(a.source, AnswerSource::kCacheHit);
  }
}

TEST_F(ParallelQueryParityTest, DuplicateRequestsComputeOnce) {
  QueryOptions no_cache;
  no_cache.cache_result = false;
  std::vector<QueryRequest> reqs = {{"mean", "INCOME", {}},
                                    {"mean", "INCOME", {}},
                                    {"mean", "INCOME", {}}};
  auto answers = parallel_->QueryMany("v", reqs, no_cache, 4);
  STATDB_ASSERT_OK(answers);
  const ViewTrafficStats* traffic =
      parallel_->GetTrafficStats("v").value();
  EXPECT_EQ(traffic->computed, 1u);
  for (const QueryAnswer& a : answers.value()) {
    EXPECT_TRUE(SummaryResultsApproxEqual(
        a.result, answers.value()[0].result, 0.0, 0.0));
  }
}

TEST_F(ParallelQueryParityTest, MetaDataGateAndErrorsMatchSerial) {
  // Category attribute: order statistics rejected, same as serial.
  auto s = serial_->Query("v", "median", "AGE_GROUP", {}, {});
  auto p = parallel_->QueryParallel("v", "median", "AGE_GROUP", {}, {}, 4);
  ASSERT_FALSE(s.ok());
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().ToString(), s.status().ToString());

  // Unknown function: the registry's error, identically.
  auto s2 = serial_->Query("v", "kurtosis", "INCOME", {}, {});
  auto p2 = parallel_->QueryParallel("v", "kurtosis", "INCOME", {}, {}, 4);
  ASSERT_FALSE(s2.ok());
  ASSERT_FALSE(p2.ok());
  EXPECT_EQ(p2.status().ToString(), s2.status().ToString());
}

TEST_F(ParallelQueryParityTest, BivariateParallelMatchesSerial) {
  for (const char* fn : {"correlation", "covariance", "regression"}) {
    auto s = serial_->QueryBivariate("v", fn, "HOURS_WORKED", "INCOME");
    auto p = parallel_->QueryBivariateParallel("v", fn, "HOURS_WORKED",
                                               "INCOME", {}, 4);
    STATDB_ASSERT_OK(s);
    STATDB_ASSERT_OK(p);
    EXPECT_TRUE(SummaryResultsApproxEqual(p.value().result,
                                          s.value().result, 1e-9, 1e-9))
        << fn;
  }
  // The cached bivariate entry is hit on re-query, like serial.
  auto again = parallel_->QueryBivariateParallel("v", "correlation",
                                                 "HOURS_WORKED", "INCOME",
                                                 {}, 4);
  STATDB_ASSERT_OK(again);
  EXPECT_EQ(again.value().source, AnswerSource::kCacheHit);
}

TEST_F(ParallelQueryParityTest, BivariateParallelAgreesWithBivariateOnOneView) {
  // Same installation, uncached, with missing cells on both sides so the
  // pairwise deletion is exercised: merged co-moments at 4 workers agree
  // with the serial stats/ finish to rounding, and one worker is the
  // serial finish itself.
  UpdateSpec missing;
  missing.column = "INCOME";
  missing.predicate = Lt(Col("AGE"), Lit(int64_t{25}));
  missing.value = nullptr;
  missing.description = "mark young incomes missing";
  STATDB_ASSERT_OK(parallel_->Update("v", missing).status());
  missing.column = "HOURS_WORKED";
  missing.predicate = Gt(Col("AGE"), Lit(int64_t{60}));
  STATDB_ASSERT_OK(parallel_->Update("v", missing).status());

  QueryOptions no_cache;
  no_cache.cache_result = false;
  for (const char* fn : {"correlation", "covariance", "regression"}) {
    auto serial = parallel_->QueryBivariate("v", fn, "HOURS_WORKED",
                                            "INCOME", no_cache);
    auto four = parallel_->QueryBivariateParallel("v", fn, "HOURS_WORKED",
                                                  "INCOME", no_cache, 4);
    auto one = parallel_->QueryBivariateParallel("v", fn, "HOURS_WORKED",
                                                 "INCOME", no_cache, 1);
    STATDB_ASSERT_OK(serial);
    STATDB_ASSERT_OK(four);
    STATDB_ASSERT_OK(one);
    EXPECT_TRUE(SummaryResultsApproxEqual(four.value().result,
                                          serial.value().result, 1e-9, 1e-9))
        << fn << ": parallel " << four.value().result.ToString()
        << " vs serial " << serial.value().result.ToString();
    EXPECT_EQ(one.value().result, serial.value().result) << fn;
  }
}

TEST_F(ParallelQueryParityTest, IncrementalMaintainersArmLikeSerial) {
  // A parallel-computed entry must survive an update exactly like a
  // serial-computed one: the incremental maintainer refreshes it rather
  // than leaving it stale.
  STATDB_ASSERT_OK(
      serial_->Query("v", "mean", "INCOME", {}, {}).status());
  STATDB_ASSERT_OK(
      parallel_->QueryParallel("v", "mean", "INCOME", {}, {}, 4).status());

  UpdateSpec spec;
  spec.column = "INCOME";
  spec.predicate = Lt(Col("INCOME"), Lit(10000.0));
  spec.value = Mul(Col("INCOME"), Lit(1.1));
  spec.description = "raise low incomes";
  auto ns = serial_->Update("v", spec);
  auto np = parallel_->Update("v", spec);
  STATDB_ASSERT_OK(ns);
  STATDB_ASSERT_OK(np);
  EXPECT_EQ(ns.value(), np.value());

  SummaryKey key{"mean", {"INCOME"}, ""};
  auto se = serial_->GetSummaryDb("v").value()->Lookup(key);
  auto pe = parallel_->GetSummaryDb("v").value()->Lookup(key);
  STATDB_ASSERT_OK(se);
  STATDB_ASSERT_OK(pe);
  EXPECT_FALSE(se.value().stale);
  EXPECT_FALSE(pe.value().stale) << "parallel path failed to arm the "
                                    "incremental maintainer";
  EXPECT_TRUE(SummaryResultsApproxEqual(pe.value().result,
                                        se.value().result, 1e-9, 1e-9));
}

TEST_F(ParallelQueryParityTest, EmptyColumnErrorsMatchSerial) {
  // A view with zero rows: every statistic fails with the serial error.
  ViewDefinition def;
  def.source = "census";
  def.predicate = Lt(Col("INCOME"), Lit(-1.0));  // selects nothing
  ASSERT_TRUE(
      parallel_->CreateView("empty", def, MaintenancePolicy::kInvalidate)
          .ok());
  ASSERT_TRUE(
      serial_->CreateView("empty", def, MaintenancePolicy::kInvalidate)
          .ok());
  for (const char* fn : {"mean", "min", "histogram", "mode", "median"}) {
    auto s = serial_->Query("empty", fn, "INCOME", {}, {});
    auto p = parallel_->QueryParallel("empty", fn, "INCOME", {}, {}, 4);
    ASSERT_FALSE(s.ok()) << fn;
    ASSERT_FALSE(p.ok()) << fn;
    EXPECT_EQ(p.status().ToString(), s.status().ToString()) << fn;
  }
  // count of an empty column succeeds with 0 on both paths.
  auto s = serial_->Query("empty", "count", "INCOME", {}, {});
  auto p = parallel_->QueryParallel("empty", "count", "INCOME", {}, {}, 4);
  STATDB_ASSERT_OK(s);
  STATDB_ASSERT_OK(p);
  EXPECT_TRUE(SummaryResultsApproxEqual(p.value().result, s.value().result,
                                        0.0, 0.0));
}

}  // namespace
}  // namespace statdb
