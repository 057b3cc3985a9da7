// Differential parity harness for statdb::simd (DESIGN.md §14).
//
// Three layers of comparison:
//   1. kernel vs kernel — scalar / SSE2 / AVX2 must be BIT-identical
//      (the 4-lane reduction order is part of the kernel contract);
//   2. kernel vs serial oracle — count/min/max exact, moments within
//      the documented Chan-et-al. tolerance class;
//   3. compressed-domain vs materialized — full Query/QueryParallel
//      answers with the planner's kill switch flipped either way.
// Randomized columns sweep run lengths, NaN/missing density, extreme
// magnitudes, and the empty/single-run edges.

#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "core/dbms.h"
#include "stats/partial_stats.h"
#include "gtest/gtest.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "stats/descriptive.h"
#include "storage/rle.h"
#include "tests/test_util.h"

namespace statdb {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Exact equality that treats any-NaN == any-NaN (payloads may differ
/// between arithmetic paths; the contract is "NaN", not one bit pattern).
bool SameDouble(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return a == b && std::signbit(a) == std::signbit(b);
}

/// Chan-et-al. tolerance: relative to the larger magnitude, floored at 1.
void ExpectNear(double a, double b, const char* what) {
  if (std::isnan(a) || std::isnan(b)) {
    EXPECT_TRUE(std::isnan(a) && std::isnan(b)) << what << ": " << a
                                                << " vs " << b;
    return;
  }
  double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  EXPECT_NEAR(a, b, 1e-9 * scale) << what;
}

void ExpectBitIdentical(const DescriptiveStats& a, const DescriptiveStats& b,
                        const char* what) {
  EXPECT_EQ(a.count, b.count) << what;
  EXPECT_TRUE(SameDouble(a.sum, b.sum)) << what << " sum " << a.sum << " vs "
                                        << b.sum;
  EXPECT_TRUE(SameDouble(a.mean, b.mean)) << what << " mean";
  EXPECT_TRUE(SameDouble(a.m2, b.m2)) << what << " m2";
  EXPECT_TRUE(SameDouble(a.min, b.min)) << what << " min";
  EXPECT_TRUE(SameDouble(a.max, b.max)) << what << " max";
}

void ExpectOracleParity(const DescriptiveStats& kernel,
                        const DescriptiveStats& oracle, const char* what) {
  EXPECT_EQ(kernel.count, oracle.count) << what;
  EXPECT_TRUE(SameDouble(kernel.min, oracle.min))
      << what << " min " << kernel.min << " vs " << oracle.min;
  EXPECT_TRUE(SameDouble(kernel.max, oracle.max))
      << what << " max " << kernel.max << " vs " << oracle.max;
  ExpectNear(kernel.sum, oracle.sum, what);
  ExpectNear(kernel.mean, oracle.mean, what);
  ExpectNear(kernel.m2, oracle.m2, what);
}

std::vector<double> RandomColumn(Rng* rng, size_t n, double nan_p,
                                 bool extreme) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    if (nan_p > 0 && rng->Bernoulli(nan_p)) {
      v[i] = kNaN;
    } else if (extreme) {
      v[i] = rng->UniformDouble(-1.0, 1.0) * 1e150;
    } else {
      v[i] = rng->Normal(10.0, 42.0);
    }
  }
  return v;
}

const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16,
                         17, 63, 64, 65, 255, 1000, 1023};

// --- layer 1: ISA levels are bit-identical -------------------------------

TEST(SimdKernelParity, DescribeSpanLevelsBitIdentical) {
  Rng rng(7);
  for (size_t n : kSizes) {
    for (double nan_p : {0.0, 0.1, 1.0}) {
      for (bool extreme : {false, true}) {
        std::vector<double> data = RandomColumn(&rng, n, nan_p, extreme);
        DescriptiveStats scalar =
            simd::DescribeSpanScalar(data.data(), data.size());
        DescriptiveStats sse2 =
            simd::DescribeSpanSse2(data.data(), data.size());
        DescriptiveStats avx2 =
            simd::DescribeSpanAvx2(data.data(), data.size());
        ExpectBitIdentical(scalar, sse2, "scalar vs sse2");
        ExpectBitIdentical(scalar, avx2, "scalar vs avx2");
      }
    }
  }
}

TEST(SimdKernelParity, ComomentSpanLevelsBitIdentical) {
  Rng rng(11);
  for (size_t n : kSizes) {
    std::vector<double> xs = RandomColumn(&rng, n, 0.0, false);
    std::vector<double> ys = RandomColumn(&rng, n, 0.0, true);
    simd::Comoments scalar =
        simd::ComomentSpanScalar(xs.data(), ys.data(), n);
    simd::Comoments sse2 = simd::ComomentSpanSse2(xs.data(), ys.data(), n);
    simd::Comoments avx2 = simd::ComomentSpanAvx2(xs.data(), ys.data(), n);
    EXPECT_EQ(scalar.n, sse2.n);
    EXPECT_EQ(scalar.n, avx2.n);
    for (const simd::Comoments* other : {&sse2, &avx2}) {
      EXPECT_TRUE(SameDouble(scalar.mean_x, other->mean_x)) << n;
      EXPECT_TRUE(SameDouble(scalar.mean_y, other->mean_y)) << n;
      EXPECT_TRUE(SameDouble(scalar.m2x, other->m2x)) << n;
      EXPECT_TRUE(SameDouble(scalar.m2y, other->m2y)) << n;
      EXPECT_TRUE(SameDouble(scalar.cxy, other->cxy)) << n;
    }
  }
}

// --- layer 2: kernels vs serial oracles ----------------------------------

TEST(SimdKernelParity, DescribeSpanMatchesSerialOracle) {
  Rng rng(13);
  for (size_t n : kSizes) {
    for (double nan_p : {0.0, 0.05, 1.0}) {
      for (bool extreme : {false, true}) {
        std::vector<double> data = RandomColumn(&rng, n, nan_p, extreme);
        ExpectOracleParity(simd::DescribeSpan(data.data(), data.size()),
                           ComputeDescriptive(data), "span vs serial");
      }
    }
  }
}

TEST(SimdKernelParity, ComomentSpanMatchesSerialOracle) {
  Rng rng(17);
  for (size_t n : kSizes) {
    std::vector<double> xs = RandomColumn(&rng, n, 0.0, false);
    std::vector<double> ys = RandomColumn(&rng, n, 0.0, false);
    simd::Comoments k = simd::ComomentSpan(xs.data(), ys.data(), n);
    ComomentStats o = ComputeComoments(xs, ys);
    EXPECT_EQ(k.n, o.n);
    ExpectNear(k.mean_x, o.mean_x, "mean_x");
    ExpectNear(k.mean_y, o.mean_y, "mean_y");
    ExpectNear(k.m2x, o.m2x, "m2x");
    ExpectNear(k.m2y, o.m2y, "m2y");
    ExpectNear(k.cxy, o.cxy, "cxy");
  }
}

/// Random RLE runs: varying lengths, missing runs, both value encodings.
std::vector<RleRun> RandomRuns(Rng* rng, size_t n_runs,
                               simd::RunValueKind kind, double missing_p,
                               double nan_p) {
  std::vector<RleRun> runs(n_runs);
  for (size_t i = 0; i < n_runs; ++i) {
    runs[i].length =
        static_cast<uint32_t>(rng->UniformInt(1, i % 5 == 0 ? 2000 : 40));
    runs[i].present = !(missing_p > 0 && rng->Bernoulli(missing_p));
    if (kind == simd::RunValueKind::kInt64) {
      runs[i].value = rng->UniformInt(-1000000, 1000000);
    } else {
      double v = (nan_p > 0 && rng->Bernoulli(nan_p))
                     ? kNaN
                     : rng->Normal(-3.0, 500.0);
      runs[i].value = std::bit_cast<int64_t>(v);
    }
  }
  return runs;
}

std::vector<double> DecodeRunsToCells(const std::vector<RleRun>& runs,
                                      simd::RunValueKind kind) {
  std::vector<double> cells;
  for (const RleRun& r : runs) {
    if (!r.present) continue;
    double v = simd::DecodeRunValue(r.value, kind);
    cells.insert(cells.end(), r.length, v);
  }
  return cells;
}

TEST(SimdKernelParity, DescribeRunsMatchesPerCellOracle) {
  Rng rng(19);
  for (size_t n_runs : {size_t{0}, size_t{1}, size_t{2}, size_t{37},
                        size_t{400}}) {
    for (simd::RunValueKind kind :
         {simd::RunValueKind::kInt64, simd::RunValueKind::kDoubleBits}) {
      double nan_p = kind == simd::RunValueKind::kDoubleBits ? 0.05 : 0.0;
      std::vector<RleRun> runs =
          RandomRuns(&rng, n_runs, kind, /*missing_p=*/0.2, nan_p);
      std::vector<double> cells = DecodeRunsToCells(runs, kind);
      ExpectOracleParity(simd::DescribeRuns(runs.data(), runs.size(), kind),
                         ComputeDescriptive(cells), "runs vs per-cell");
    }
  }
}

TEST(SimdKernelParity, DescribeRunsAllMissingIsEmpty) {
  std::vector<RleRun> runs(3);
  for (auto& r : runs) {
    r.length = 100;
    r.present = false;
  }
  DescriptiveStats d =
      simd::DescribeRuns(runs.data(), runs.size(), simd::RunValueKind::kInt64);
  EXPECT_EQ(d.count, 0u);
  EXPECT_EQ(d.sum, 0.0);
}

// --- forced-dispatch sweep (every compiled path must agree) --------------

TEST(SimdDispatch, ForcedLevelSweepParity) {
  Rng rng(23);
  std::vector<double> data = RandomColumn(&rng, 777, 0.02, false);

  DescriptiveStats reference;
  {
    simd::ScopedForceLevel scalar(simd::SimdLevel::kScalar);
    ASSERT_TRUE(scalar.ok());
    reference = simd::DescribeSpan(data.data(), data.size());
  }

  for (simd::SimdLevel level :
       {simd::SimdLevel::kSSE2, simd::SimdLevel::kAVX2}) {
    simd::ScopedForceLevel forced(level);
    if (!forced.ok()) {
      // Not compiled in / not supported by this CPU: the guard must say
      // so (and stay inert) instead of silently running another path.
      EXPECT_EQ(forced.status().code(), StatusCode::kUnavailable);
      continue;
    }
    EXPECT_EQ(simd::ActiveLevel(), level);
    ExpectBitIdentical(simd::DescribeSpan(data.data(), data.size()),
                       reference, simd::LevelName(level));
  }
}

TEST(SimdDispatch, ScalarAlwaysAvailable) {
  EXPECT_TRUE(simd::LevelAvailable(simd::SimdLevel::kScalar));
  simd::ScopedForceLevel forced(simd::SimdLevel::kScalar);
  ASSERT_TRUE(forced.ok());
  EXPECT_EQ(simd::ActiveLevel(), simd::SimdLevel::kScalar);
}

TEST(SimdDispatch, ScopedForceRestoresOuterLevelOnEarlyExit) {
  // The leak this guard exists to prevent: an ASSERT_* bail-out between
  // ForceLevel and ClearForcedLevel used to pin every later test (and,
  // with statdb::session, every concurrent reader) to the leaked level.
  simd::SimdLevel ambient = simd::ActiveLevel();
  {
    simd::ScopedForceLevel outer(simd::SimdLevel::kScalar);
    ASSERT_TRUE(outer.ok());
    {
      // Nested guard restores the OUTER override, not automatic dispatch.
      simd::ScopedForceLevel inner(simd::CompiledLevel());
      ASSERT_TRUE(inner.ok());
      EXPECT_EQ(simd::ActiveLevel(), simd::CompiledLevel());
    }
    EXPECT_EQ(simd::ActiveLevel(), simd::SimdLevel::kScalar);
  }
  EXPECT_EQ(simd::ActiveLevel(), ambient);
}

// --- regression: the NaN min/max divergence the harness surfaced ---------
// The serial path used to seed min/max from the first element (sticky on
// a leading NaN) and Min()/Max() used std::min_element, whose operator<
// ordering depends on where a NaN sits. The kernels' NaN-skip rule is now
// the contract everywhere; these pin the serial side to it.

TEST(NaNContractRegression, LeadingNaNDoesNotStickInComputeDescriptive) {
  DescriptiveStats d = ComputeDescriptive({kNaN, 5.0, 1.0, 3.0});
  EXPECT_EQ(d.min, 1.0);
  EXPECT_EQ(d.max, 5.0);
  EXPECT_EQ(d.count, 4u);  // NaN cells still count
  EXPECT_TRUE(std::isnan(d.sum));
}

TEST(NaNContractRegression, AllNaNColumnYieldsNaNMinMax) {
  DescriptiveStats d = ComputeDescriptive({kNaN, kNaN});
  EXPECT_TRUE(std::isnan(d.min));
  EXPECT_TRUE(std::isnan(d.max));
  // An all-infinity column must NOT be mistaken for all-NaN.
  double inf = std::numeric_limits<double>::infinity();
  DescriptiveStats e = ComputeDescriptive({inf, inf});
  EXPECT_EQ(e.min, inf);
  EXPECT_EQ(e.max, inf);
}

TEST(NaNContractRegression, MinMaxHelpersSkipNaN) {
  auto mn = Min({kNaN, 3.0, 2.0});
  auto mx = Max({2.0, kNaN, 3.0});
  ASSERT_TRUE(mn.ok());
  ASSERT_TRUE(mx.ok());
  EXPECT_EQ(*mn, 2.0);
  EXPECT_EQ(*mx, 3.0);
  auto all_nan = Min({kNaN, kNaN});
  ASSERT_TRUE(all_nan.ok());
  EXPECT_TRUE(std::isnan(*all_nan));
}

TEST(NaNContractRegression, MergeIsShardOrderIndependent) {
  DescriptiveStats nan_shard = ComputeDescriptive({kNaN, kNaN});
  DescriptiveStats num_shard = ComputeDescriptive({1.0, 2.0});
  DescriptiveStats ab = nan_shard;
  ab.Merge(num_shard);
  DescriptiveStats ba = num_shard;
  ba.Merge(nan_shard);
  EXPECT_EQ(ab.min, 1.0);
  EXPECT_EQ(ab.max, 2.0);
  EXPECT_EQ(ba.min, 1.0);
  EXPECT_EQ(ba.max, 2.0);
}

// --- layer 3: end-to-end Query / QueryParallel parity --------------------

class CompressedQueryParity : public ::testing::Test {
 protected:
  void SetUp() override {
    storage_ = MakeTapeDiskStorage();
    dbms_ = std::make_unique<StatisticalDbms>(storage_.get());

    Schema schema({Attribute::Numeric("RUNI", DataType::kInt64),
                   Attribute::Numeric("RUND", DataType::kDouble),
                   Attribute::Numeric("MISSY", DataType::kInt64)});
    Table t(schema);
    Rng rng(29);
    // Sorted-by-construction columns: RUNI has runs of ~riffled lengths,
    // RUND repeats a double per ~60 rows, MISSY interleaves null runs.
    const size_t kRows = 3000;
    for (size_t i = 0; i < kRows; ++i) {
      Row row;
      row.push_back(Value::Int(static_cast<int64_t>(i / 40)));
      row.push_back(Value::Real(std::floor(double(i) / 60.0) * 1.25 - 7.0));
      row.push_back((i / 100) % 3 == 0
                        ? Value::Null()
                        : Value::Int(static_cast<int64_t>(i / 150)));
      ASSERT_TRUE(t.AppendRow(std::move(row)).ok());
    }
    STATDB_ASSERT_OK(dbms_->LoadRawDataSet("runs", t, "rle-friendly"));
    ViewDefinition def;
    def.source = "runs";
    auto vc = dbms_->CreateView("v", def, MaintenancePolicy::kInvalidate);
    STATDB_ASSERT_OK(vc);
  }

  uint64_t CompressedScans() {
    return dbms_->metrics().GetCounter("dbms.scan.compressed_domain")->Get();
  }

  std::unique_ptr<StorageManager> storage_;
  std::unique_ptr<StatisticalDbms> dbms_;
};

const char* kMergeableBattery[] = {"count", "sum",  "mean",     "variance",
                                   "stddev", "min", "max",      "range",
                                   "mode",   "distinct", "histogram"};

void ExpectSameResult(const SummaryResult& compressed,
                      const SummaryResult& materialized,
                      const std::string& what) {
  ASSERT_EQ(compressed.kind(), materialized.kind()) << what;
  if (compressed.kind() == SummaryResultKind::kScalar) {
    auto a = compressed.AsScalar();
    auto b = materialized.AsScalar();
    ASSERT_TRUE(a.ok() && b.ok()) << what;
    ExpectNear(*a, *b, what.c_str());
    return;
  }
  ASSERT_EQ(compressed.kind(), SummaryResultKind::kHistogram) << what;
  auto a = compressed.AsHistogram();
  auto b = materialized.AsHistogram();
  ASSERT_TRUE(a.ok() && b.ok()) << what;
  // Bucket counts are exact: edges come from exact min/max and each
  // distinct value buckets identically on both paths.
  EXPECT_EQ((*a)->counts, (*b)->counts) << what;
  EXPECT_EQ((*a)->below, (*b)->below) << what;
  EXPECT_EQ((*a)->above, (*b)->above) << what;
  ASSERT_EQ((*a)->edges.size(), (*b)->edges.size()) << what;
  for (size_t i = 0; i < (*a)->edges.size(); ++i) {
    ExpectNear((*a)->edges[i], (*b)->edges[i], what.c_str());
  }
}

TEST_F(CompressedQueryParity, SidecarsBuiltForRunFriendlyColumns) {
  auto view = dbms_->GetView("v");
  ASSERT_TRUE(view.ok());
  EXPECT_NE((*view)->CompressedSidecar("RUNI"), nullptr);
  EXPECT_NE((*view)->CompressedSidecar("RUND"), nullptr);
  EXPECT_NE((*view)->CompressedSidecar("MISSY"), nullptr);
}

TEST_F(CompressedQueryParity, SerialQueryParityAcrossBattery) {
  QueryOptions opts;
  opts.cache_result = false;  // force a real compute on every call
  for (const char* fn : kMergeableBattery) {
    for (const char* attr : {"RUNI", "RUND", "MISSY"}) {
      uint64_t before = CompressedScans();
      dbms_->set_compressed_scan_enabled(true);
      auto compressed = dbms_->Query("v", fn, attr, {}, opts);
      STATDB_ASSERT_OK(compressed);
      EXPECT_GT(CompressedScans(), before)
          << fn << "(" << attr << ") did not take the compressed path";
      dbms_->set_compressed_scan_enabled(false);
      auto materialized = dbms_->Query("v", fn, attr, {}, opts);
      STATDB_ASSERT_OK(materialized);
      ExpectSameResult(compressed->result, materialized->result,
                       std::string(fn) + "(" + attr + ")");
    }
  }
}

TEST_F(CompressedQueryParity, ParallelQueryParityAcrossBattery) {
  QueryOptions opts;
  opts.cache_result = false;
  for (const char* fn : kMergeableBattery) {
    for (const char* attr : {"RUNI", "MISSY"}) {
      dbms_->set_compressed_scan_enabled(true);
      auto compressed = dbms_->QueryParallel("v", fn, attr, {}, opts, 4);
      STATDB_ASSERT_OK(compressed);
      dbms_->set_compressed_scan_enabled(false);
      auto materialized = dbms_->QueryParallel("v", fn, attr, {}, opts, 4);
      STATDB_ASSERT_OK(materialized);
      ExpectSameResult(compressed->result, materialized->result,
                       std::string("parallel ") + fn + "(" + attr + ")");
    }
  }
}

TEST_F(CompressedQueryParity, ForcedLevelsAgreeEndToEnd) {
  QueryOptions opts;
  opts.cache_result = false;
  dbms_->set_compressed_scan_enabled(false);  // exercise the span kernels
  // Reference is the scalar-forced parallel answer; other ISA levels must
  // reproduce it BIT-identically (serial Query differs only by rounding —
  // it uses the per-cell Welford oracle, a different documented path).
  double ref;
  {
    simd::ScopedForceLevel scalar(simd::SimdLevel::kScalar);
    ASSERT_TRUE(scalar.ok());
    auto reference =
        dbms_->QueryParallel("v", "variance", "RUND", {}, opts, 3);
    STATDB_ASSERT_OK(reference);
    ref = *reference->result.AsScalar();
    auto serial = dbms_->Query("v", "variance", "RUND", {}, opts);
    STATDB_ASSERT_OK(serial);
    ExpectNear(*serial->result.AsScalar(), ref, "serial vs parallel");
  }
  for (simd::SimdLevel level :
       {simd::SimdLevel::kSSE2, simd::SimdLevel::kAVX2}) {
    simd::ScopedForceLevel forced(level);
    if (!forced.ok()) continue;
    auto again = dbms_->QueryParallel("v", "variance", "RUND", {}, opts, 3);
    STATDB_ASSERT_OK(again);
    EXPECT_EQ(*again->result.AsScalar(), ref) << simd::LevelName(level);
  }
}

TEST_F(CompressedQueryParity, MaintainerArmingForcesMaterializedPath) {
  // kIncremental + cache_result needs the full column to initialize the
  // maintainer, so the planner must NOT take the compressed path.
  ViewDefinition def;
  def.source = "runs";
  def.sample_fraction = 0.5;  // distinct definition -> fresh view
  def.sample_seed = 99;
  auto vc = dbms_->CreateView("vm", def, MaintenancePolicy::kIncremental);
  STATDB_ASSERT_OK(vc);
  uint64_t before = CompressedScans();
  QueryOptions opts;  // cache_result = true
  STATDB_ASSERT_OK(dbms_->Query("vm", "mean", "RUNI", {}, opts));
  EXPECT_EQ(CompressedScans(), before);
  // A second, uncached query on the same attribute may go compressed.
  QueryOptions uncached;
  uncached.cache_result = false;
  STATDB_ASSERT_OK(dbms_->Query("vm", "sum", "RUNI", {}, uncached));
  EXPECT_GT(CompressedScans(), before);
}

TEST_F(CompressedQueryParity, CellWriteInvalidatesSidecarAndStaysCorrect) {
  auto view = dbms_->GetView("v");
  ASSERT_TRUE(view.ok());
  ASSERT_NE((*view)->CompressedSidecar("RUNI"), nullptr);
  QueryOptions opts;
  opts.cache_result = false;
  auto before = dbms_->Query("v", "sum", "RUNI", {}, opts);
  STATDB_ASSERT_OK(before);
  // Direct cell write (the rollback/derived-column entry point).
  STATDB_ASSERT_OK((*view)->WriteCell(0, "RUNI", Value::Int(1000)));
  EXPECT_EQ((*view)->CompressedSidecar("RUNI"), nullptr)
      << "stale sidecar survived a cell write";
  auto after = dbms_->Query("v", "sum", "RUNI", {}, opts);
  STATDB_ASSERT_OK(after);
  EXPECT_EQ(*after->result.AsScalar(), *before->result.AsScalar() + 1000.0);
}

}  // namespace
}  // namespace statdb
