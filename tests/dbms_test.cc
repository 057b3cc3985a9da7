#include "core/dbms.h"

#include <cmath>

#include "gtest/gtest.h"
#include "relational/datagen.h"
#include "stats/order.h"
#include "tests/test_util.h"

namespace statdb {
namespace {

class DbmsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage_ = MakeTapeDiskStorage();
    dbms_ = std::make_unique<StatisticalDbms>(storage_.get());
    CensusOptions opts;
    opts.rows = 2000;
    Rng rng(31);
    auto data = GenerateCensusMicrodata(opts, &rng);
    ASSERT_TRUE(data.ok());
    raw_ = std::move(data).value();
    STATDB_ASSERT_OK(dbms_->LoadRawDataSet("census", raw_, "synthetic"));
  }

  ViewDefinition FullViewDef() {
    ViewDefinition def;
    def.source = "census";
    return def;
  }

  Result<std::string> MakeView(
      const std::string& name,
      MaintenancePolicy policy = MaintenancePolicy::kIncremental) {
    STATDB_ASSIGN_OR_RETURN(ViewCreation vc,
                            dbms_->CreateView(name, FullViewDef(), policy));
    return vc.name;
  }

  std::unique_ptr<StorageManager> storage_;
  std::unique_ptr<StatisticalDbms> dbms_;
  Table raw_;
};

TEST_F(DbmsTest, LoadRegistersCatalogEntry) {
  auto info = dbms_->catalog().GetDataSet("census");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ((*info)->location, DataSetLocation::kTape);
  EXPECT_EQ((*info)->approx_rows, 2000u);
  EXPECT_EQ(dbms_->LoadRawDataSet("census", raw_).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(DbmsTest, CreateViewMaterializesOntoDisk) {
  auto name = MakeView("v1");
  ASSERT_TRUE(name.ok());
  auto view = dbms_->GetView("v1");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*view)->num_rows(), 2000u);
  auto info = dbms_->catalog().GetDataSet("v1");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ((*info)->location, DataSetLocation::kDisk);
}

TEST_F(DbmsTest, DuplicateDefinitionReusesExistingView) {
  ASSERT_TRUE(MakeView("v1").ok());
  // Same definition, different requested name: §2.3 reuse.
  auto again = dbms_->CreateView("v2", FullViewDef(),
                                 MaintenancePolicy::kIncremental);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->reused);
  EXPECT_EQ(again->name, "v1");
  // A genuinely different definition creates a new view.
  ViewDefinition other = FullViewDef();
  other.predicate = Gt(Col("AGE"), Lit(int64_t{40}));
  auto v3 = dbms_->CreateView("v3", other, MaintenancePolicy::kIncremental);
  ASSERT_TRUE(v3.ok());
  EXPECT_FALSE(v3->reused);
}

TEST_F(DbmsTest, QueryComputesThenHitsCache) {
  ASSERT_TRUE(MakeView("v").ok());
  auto first = dbms_->Query("v", "median", "INCOME");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->source, AnswerSource::kComputed);
  auto second = dbms_->Query("v", "median", "INCOME");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->source, AnswerSource::kCacheHit);
  EXPECT_EQ(first->result, second->result);
  auto traffic = dbms_->GetTrafficStats("v");
  ASSERT_TRUE(traffic.ok());
  EXPECT_EQ((*traffic)->computed, 1u);
  EXPECT_EQ((*traffic)->cache_hits, 1u);
}

TEST_F(DbmsTest, QueryMatchesDirectComputation) {
  ASSERT_TRUE(MakeView("v").ok());
  auto answer = dbms_->Query("v", "median", "INCOME");
  ASSERT_TRUE(answer.ok());
  auto col = raw_.NumericColumn("INCOME");
  ASSERT_TRUE(col.ok());
  EXPECT_DOUBLE_EQ(answer->result.AsScalar().value(),
                   Median(*col).value());
}

TEST_F(DbmsTest, CategoryAttributesRejectOrderStatistics) {
  ASSERT_TRUE(MakeView("v").ok());
  // §3.2: median of AGE_GROUP codes is meaningless.
  EXPECT_EQ(dbms_->Query("v", "median", "AGE_GROUP").status().code(),
            StatusCode::kInvalidArgument);
  // But counting/histogramming codes is fine.
  EXPECT_TRUE(dbms_->Query("v", "distinct", "AGE_GROUP").ok());
  EXPECT_TRUE(dbms_->Query("v", "count", "SEX").ok());
}

TEST_F(DbmsTest, IncrementalMaintenanceKeepsCacheFresh) {
  ASSERT_TRUE(MakeView("v", MaintenancePolicy::kIncremental).ok());
  ASSERT_TRUE(dbms_->Query("v", "mean", "INCOME").ok());
  ASSERT_TRUE(dbms_->Query("v", "median", "INCOME").ok());
  // Update: double the income of the young.
  UpdateSpec spec;
  spec.predicate = Lt(Col("AGE"), Lit(int64_t{30}));
  spec.column = "INCOME";
  spec.value = Mul(Col("INCOME"), Lit(2.0));
  auto changed = dbms_->Update("v", spec);
  ASSERT_TRUE(changed.ok());
  EXPECT_GT(*changed, 0u);
  // Both queries must now hit the cache AND agree with full recompute.
  auto mean = dbms_->Query("v", "mean", "INCOME");
  ASSERT_TRUE(mean.ok());
  EXPECT_EQ(mean->source, AnswerSource::kCacheHit);
  auto view = dbms_->GetView("v");
  ASSERT_TRUE(view.ok());
  auto col = (*view)->ReadNumericColumn("INCOME");
  ASSERT_TRUE(col.ok());
  double expected_mean = 0;
  for (double x : *col) expected_mean += x;
  expected_mean /= double(col->size());
  EXPECT_NEAR(mean->result.AsScalar().value(), expected_mean, 1e-6);
  auto median = dbms_->Query("v", "median", "INCOME");
  ASSERT_TRUE(median.ok());
  EXPECT_DOUBLE_EQ(median->result.AsScalar().value(),
                   Median(*col).value());
  auto traffic = dbms_->GetTrafficStats("v");
  ASSERT_TRUE(traffic.ok());
  EXPECT_GT((*traffic)->maintainer_applies, 0u);
}

TEST_F(DbmsTest, InvalidatePolicyMarksStaleAndRecomputesLazily) {
  ASSERT_TRUE(MakeView("v", MaintenancePolicy::kInvalidate).ok());
  ASSERT_TRUE(dbms_->Query("v", "mean", "INCOME").ok());
  UpdateSpec spec;
  spec.predicate = Lt(Col("AGE"), Lit(int64_t{30}));
  spec.column = "INCOME";
  spec.value = Mul(Col("INCOME"), Lit(2.0));
  ASSERT_TRUE(dbms_->Update("v", spec).ok());
  // Stale value served only when the analyst allows it (§3.2).
  QueryOptions stale_ok;
  stale_ok.allow_stale = true;
  auto approx = dbms_->Query("v", "mean", "INCOME", {}, stale_ok);
  ASSERT_TRUE(approx.ok());
  EXPECT_EQ(approx->source, AnswerSource::kStaleCacheHit);
  EXPECT_FALSE(approx->exact);
  // Exact query recomputes and re-caches.
  auto exact = dbms_->Query("v", "mean", "INCOME");
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->source, AnswerSource::kComputed);
  auto hit = dbms_->Query("v", "mean", "INCOME");
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->source, AnswerSource::kCacheHit);
}

TEST_F(DbmsTest, EagerPolicyRecomputesImmediately) {
  ASSERT_TRUE(MakeView("v", MaintenancePolicy::kEager).ok());
  ASSERT_TRUE(dbms_->Query("v", "mean", "INCOME").ok());
  ASSERT_TRUE(dbms_->Query("v", "mode", "INCOME").ok());
  UpdateSpec spec;
  spec.predicate = Lt(Col("AGE"), Lit(int64_t{30}));
  spec.column = "INCOME";
  spec.value = Mul(Col("INCOME"), Lit(2.0));
  ASSERT_TRUE(dbms_->Update("v", spec).ok());
  auto traffic = dbms_->GetTrafficStats("v");
  ASSERT_TRUE(traffic.ok());
  EXPECT_EQ((*traffic)->eager_recomputes, 2u);
  auto hit = dbms_->Query("v", "mean", "INCOME");
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->source, AnswerSource::kCacheHit);
}

// E7 (§4.2-4.3): one session per policy. Each of ten rounds makes
// `updates` AGE-cohort updates to INCOME, then asks for its mean
// `queries` times; mean was cached before the session.
TEST_F(DbmsTest, MaintenancePoliciesAcrossQueryMixes) {
  auto run = [&](MaintenancePolicy policy, int updates, int queries) {
    dbms_ = std::make_unique<StatisticalDbms>(storage_.get());
    EXPECT_TRUE(dbms_->LoadRawDataSet("census", raw_).ok());
    EXPECT_TRUE(MakeView("v", policy).ok());
    EXPECT_TRUE(dbms_->Query("v", "mean", "INCOME").ok());
    for (int round = 0; round < 10; ++round) {
      for (int u = 0; u < updates; ++u) {
        UpdateSpec spec;
        spec.predicate = Eq(Col("AGE"), Lit(int64_t{20 + u}));
        spec.column = "INCOME";
        spec.value = Mul(Col("INCOME"), Lit(1.01));
        EXPECT_TRUE(dbms_->Update("v", spec).ok());
      }
      for (int q = 0; q < queries; ++q) {
        EXPECT_TRUE(dbms_->Query("v", "mean", "INCOME").ok());
      }
    }
    return *dbms_->GetTrafficStats("v").value();
  };
  // Query-heavy: incremental computes nothing after the warm-up;
  // invalidate computes once per query that follows an update; eager
  // computes nothing at query time and recomputes the entry per update.
  EXPECT_EQ(run(MaintenancePolicy::kIncremental, 1, 3).computed, 1u);
  EXPECT_EQ(run(MaintenancePolicy::kInvalidate, 1, 3).computed, 11u);
  const ViewTrafficStats eager = run(MaintenancePolicy::kEager, 1, 3);
  EXPECT_EQ(eager.computed, 1u);
  EXPECT_EQ(eager.eager_recomputes, 10u);
  // Update-heavy: the adaptive delta policy hands the incremental view's
  // INCOME to the lazy strategy, which then recomputes like invalidate.
  EXPECT_EQ(run(MaintenancePolicy::kIncremental, 4, 1).computed, 8u);
  EXPECT_EQ(
      dbms_->delta_policy().Current("v", "INCOME", dbms_->delta_config()),
      delta::MaintenanceStrategy::kInvalidateLazy);
}

TEST_F(DbmsTest, InferenceAnswersFromOtherCachedValues) {
  ASSERT_TRUE(MakeView("v").ok());
  ASSERT_TRUE(dbms_->Query("v", "sum", "INCOME").ok());
  ASSERT_TRUE(dbms_->Query("v", "count", "INCOME").ok());
  QueryOptions opts;
  opts.allow_inference = true;
  auto mean = dbms_->Query("v", "mean", "INCOME", {}, opts);
  ASSERT_TRUE(mean.ok());
  EXPECT_EQ(mean->source, AnswerSource::kInferred);
  EXPECT_TRUE(mean->exact);
  auto col = raw_.NumericColumn("INCOME");
  double expected = 0;
  for (double x : *col) expected += x;
  expected /= double(col->size());
  EXPECT_NEAR(mean->result.AsScalar().value(), expected, 1e-9);
}

TEST_F(DbmsTest, RollbackRestoresDataAndInvalidatesSummaries) {
  ASSERT_TRUE(MakeView("v").ok());
  auto view = dbms_->GetView("v").value();
  auto before = view->ReadNumericColumn("INCOME").value();
  ASSERT_TRUE(dbms_->Query("v", "mean", "INCOME").ok());
  UpdateSpec spec;
  spec.predicate = nullptr;
  spec.column = "INCOME";
  spec.value = Mul(Col("INCOME"), Lit(3.0));
  spec.description = "bad edit";
  ASSERT_TRUE(dbms_->Update("v", spec).ok());
  uint64_t v_after = view->version();
  EXPECT_EQ(v_after, 1u);
  // Undo the edit (§3.2's "undo recent changes").
  STATDB_ASSERT_OK(dbms_->Rollback("v", 0));
  EXPECT_EQ(view->version(), 0u);
  auto after = view->ReadNumericColumn("INCOME").value();
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); ++i) {
    ASSERT_DOUBLE_EQ(after[i], before[i]);
  }
  // The cached mean must not be served fresh after rollback.
  auto mean = dbms_->Query("v", "mean", "INCOME");
  ASSERT_TRUE(mean.ok());
  EXPECT_EQ(mean->source, AnswerSource::kComputed);
}

TEST_F(DbmsTest, UpdateHistoryRecordsDescriptions) {
  ASSERT_TRUE(MakeView("v").ok());
  UpdateSpec spec;
  spec.predicate = Gt(Col("AGE"), Lit(int64_t{120}));
  spec.column = "AGE";
  spec.value = nullptr;
  spec.description = "invalidate impossible ages";
  ASSERT_TRUE(dbms_->Update("v", spec).ok());
  auto rec = dbms_->management_db().GetView("v");
  ASSERT_TRUE(rec.ok());
  auto entries = (*rec)->history.EntriesSince(0);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0]->description, "invalidate impossible ages");
  EXPECT_GT(entries[0]->changes.size(), 0u);
}

TEST_F(DbmsTest, LocalDerivedColumnMaintainedPerRow) {
  ASSERT_TRUE(MakeView("v").ok());
  STATDB_ASSERT_OK(dbms_->AddDerivedColumn(
      "v", DerivedColumnDef::Local("LOG_INCOME", Log(Col("INCOME")))));
  auto view = dbms_->GetView("v").value();
  // Spot-check the fill.
  auto income0 = view->ReadCell(0, "INCOME").value();
  auto log0 = view->ReadCell(0, "LOG_INCOME").value();
  if (!income0.is_null() && income0.ToDouble().value() > 0) {
    EXPECT_NEAR(log0.AsReal(), std::log(income0.ToDouble().value()), 1e-12);
  }
  // Update INCOME for one stratum; LOG_INCOME follows (kLocal rule).
  UpdateSpec spec;
  spec.predicate = Eq(Col("SEX"), Lit(int64_t{0}));
  spec.column = "INCOME";
  spec.value = Mul(Col("INCOME"), Lit(10.0));
  ASSERT_TRUE(dbms_->Update("v", spec).ok());
  for (uint64_t r = 0; r < 50; ++r) {
    auto income = view->ReadCell(r, "INCOME").value();
    auto logv = view->ReadCell(r, "LOG_INCOME").value();
    if (income.is_null() || income.ToDouble().value() <= 0) continue;
    ASSERT_NEAR(logv.AsReal(), std::log(income.ToDouble().value()), 1e-9)
        << "row " << r;
  }
}

TEST_F(DbmsTest, RegenerateDerivedColumnOnDemand) {
  ASSERT_TRUE(MakeView("v").ok());
  STATDB_ASSERT_OK(dbms_->AddDerivedColumn(
      "v", DerivedColumnDef::Residuals("RESID", "AGE", "INCOME")));
  // Residuals are mean-zero right after the fit.
  auto resid = dbms_->ReadColumn("v", "RESID");
  ASSERT_TRUE(resid.ok());
  double sum = 0;
  size_t n = 0;
  for (const Value& v : *resid) {
    if (v.is_null()) continue;
    sum += v.AsReal();
    ++n;
  }
  EXPECT_NEAR(sum / double(n), 0.0, 1e-6);
  // An update to the regressor marks the whole vector out of date
  // (§3.2: "the model may change"); the next read regenerates.
  UpdateSpec spec;
  spec.predicate = Lt(Col("AGE"), Lit(int64_t{20}));
  spec.column = "INCOME";
  spec.value = Mul(Col("INCOME"), Lit(5.0));
  ASSERT_TRUE(dbms_->Update("v", spec).ok());
  auto rec = dbms_->management_db().GetView("v").value();
  // After the transparent ReadColumn regeneration, still mean-zero
  // under the refit model.
  auto resid2 = dbms_->ReadColumn("v", "RESID");
  ASSERT_TRUE(resid2.ok());
  double sum2 = 0;
  size_t n2 = 0;
  for (const Value& v : *resid2) {
    if (v.is_null()) continue;
    sum2 += v.AsReal();
    ++n2;
  }
  EXPECT_NEAR(sum2 / double(n2), 0.0, 1e-6);
  for (const DerivedColumnDef& def : rec->derived_columns) {
    EXPECT_FALSE(def.out_of_date);
  }
}

TEST_F(DbmsTest, StandardSummaryPopulatesBattery) {
  ASSERT_TRUE(MakeView("v").ok());
  STATDB_ASSERT_OK(dbms_->ComputeStandardSummary("v", "INCOME"));
  auto summary = dbms_->GetSummaryDb("v");
  ASSERT_TRUE(summary.ok());
  EXPECT_GE((*summary)->entry_count(), 10u);
  // All battery members now hit the cache.
  auto hit = dbms_->Query("v", "quartiles", "INCOME");
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->source, AnswerSource::kCacheHit);
}

TEST_F(DbmsTest, AnnotationsStoredAsText) {
  ASSERT_TRUE(MakeView("v").ok());
  STATDB_ASSERT_OK(dbms_->AnnotateAttribute(
      "v", "INCOME", "outliers above 1e7 look like keypunch errors"));
  auto summary = dbms_->GetSummaryDb("v").value();
  auto note = summary->Lookup(SummaryKey::Of("note", "INCOME"));
  ASSERT_TRUE(note.ok());
  EXPECT_NE(note->result.AsText().value()->find("keypunch"),
            std::string::npos);
}

TEST_F(DbmsTest, SampledViewIsSmaller) {
  ViewDefinition def;
  def.source = "census";
  def.sample_fraction = 0.2;
  auto vc = dbms_->CreateView("sample", def,
                              MaintenancePolicy::kIncremental);
  ASSERT_TRUE(vc.ok());
  auto view = dbms_->GetView("sample").value();
  EXPECT_GT(view->num_rows(), 200u);
  EXPECT_LT(view->num_rows(), 600u);
  // Sampled estimates are near the full-data truth. The median is the
  // right check: the generator plants 1000x income outliers, so the
  // sample *mean* legitimately swings by 2x depending on whether an
  // outlier is drawn.
  auto est = dbms_->Query("sample", "median", "INCOME");
  ASSERT_TRUE(est.ok());
  auto col = raw_.NumericColumn("INCOME").value();
  double truth = Median(col).value();
  EXPECT_NEAR(est->result.AsScalar().value() / truth, 1.0, 0.2);
}

TEST_F(DbmsTest, UnknownViewAndSourceErrors) {
  EXPECT_FALSE(dbms_->Query("nope", "mean", "INCOME").ok());
  EXPECT_FALSE(dbms_->GetView("nope").ok());
  ViewDefinition def;
  def.source = "no_such_dataset";
  EXPECT_FALSE(
      dbms_->CreateView("x", def, MaintenancePolicy::kIncremental).ok());
}

TEST_F(DbmsTest, TapeIsReadAtMaterializationDiskAfterwards) {
  auto tape = storage_->GetDevice("tape").value();
  auto disk = storage_->GetDevice("disk").value();
  storage_->ResetAllStats();
  ASSERT_TRUE(MakeView("v").ok());
  EXPECT_GT(tape->stats().block_reads, 0u);
  uint64_t tape_reads_after_create = tape->stats().block_reads;
  // Queries touch only the disk.
  ASSERT_TRUE(dbms_->Query("v", "mean", "INCOME").ok());
  EXPECT_EQ(tape->stats().block_reads, tape_reads_after_create);
  EXPECT_GT(disk->stats().block_reads + disk->stats().block_writes, 0u);
}

// A predicate update whose evaluation fails at some row must leave the
// view exactly as it was: no cell, version or history entry changes, and
// the maintained summaries stay exact.
TEST_F(DbmsTest, FailedUpdateLeavesViewAndSummariesUntouched) {
  ASSERT_TRUE(MakeView("v").ok());
  ConcreteView* view = dbms_->GetView("v").value();
  ASSERT_TRUE(dbms_->Query("v", "mean", "INCOME").ok());
  const std::vector<Value> before = view->ReadColumn("INCOME").value();
  ViewRecord* rec = dbms_->management_db().GetView("v").value();
  const size_t entries = rec->history.EntriesSince(0).size();

  // Rows with AGE > 40 are selected without the right side; the first row
  // with AGE <= 40 fails adding a string.
  UpdateSpec spec;
  spec.column = "INCOME";
  spec.value = nullptr;
  spec.predicate = Or(Gt(Col("AGE"), Lit(int64_t{40})),
                      Gt(Add(Col("AGE"), Lit("x")), Lit(int64_t{0})));
  Result<uint64_t> r = dbms_->Update("v", spec);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(view->ReadColumn("INCOME").value(), before);
  EXPECT_EQ(view->version(), 0u);
  EXPECT_EQ(rec->version, 0u);
  EXPECT_EQ(rec->history.EntriesSince(0).size(), entries);
  auto mean = dbms_->Query("v", "mean", "INCOME");
  ASSERT_TRUE(mean.ok());
  EXPECT_EQ(mean->source, AnswerSource::kCacheHit);
  EXPECT_TRUE(mean->exact);
  const std::vector<double> col = view->ReadNumericColumn("INCOME").value();
  double sum = 0;
  for (double x : col) sum += x;
  EXPECT_NEAR(mean->result.AsScalar().value(), sum / double(col.size()),
              1e-9 * std::abs(sum));
}

// A kLocal derived column that fails to recompute fails the whole
// update: the target cells, the derived cells, the version and the
// history stay as they were.
TEST_F(DbmsTest, FailedDerivedRecomputeLeavesViewUntouched) {
  ASSERT_TRUE(MakeView("v").ok());
  STATDB_ASSERT_OK(dbms_->AddDerivedColumn(
      "v", DerivedColumnDef::Local("AGE_X", Mul(Col("AGE"),
                                                Lit(int64_t{1} << 40)))));
  ConcreteView* view = dbms_->GetView("v").value();
  const std::vector<Value> ages = view->ReadColumn("AGE").value();
  const std::vector<Value> derived = view->ReadColumn("AGE_X").value();
  ViewRecord* rec = dbms_->management_db().GetView("v").value();
  const uint64_t version = view->version();

  // 2^30 fits AGE, but 2^30 * 2^40 overflows int64 in the derived rule.
  UpdateSpec spec;
  spec.column = "AGE";
  spec.predicate = Lt(Col("AGE"), Lit(int64_t{30}));
  spec.value = Lit(int64_t{1} << 30);
  Result<uint64_t> r = dbms_->Update("v", spec);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);

  EXPECT_EQ(view->ReadColumn("AGE").value(), ages);
  EXPECT_EQ(view->ReadColumn("AGE_X").value(), derived);
  EXPECT_EQ(view->version(), version);
  EXPECT_EQ(rec->version, version);
  EXPECT_TRUE(rec->history.entries().empty());
}

// Rolling back an update undoes what a regeneration since then fitted:
// the generated column reads as it did before the update, and the
// summaries cached on it are not served.
TEST_F(DbmsTest, RollbackPastRegenerationRestoresGeneratedColumn) {
  ASSERT_TRUE(MakeView("v").ok());
  STATDB_ASSERT_OK(dbms_->AddDerivedColumn(
      "v", DerivedColumnDef::Residuals("RESID", "AGE", "INCOME")));
  const std::vector<Value> before = dbms_->ReadColumn("v", "RESID").value();

  UpdateSpec spec;
  spec.column = "INCOME";
  spec.predicate = Lt(Col("AGE"), Lit(int64_t{40}));
  spec.value = Mul(Col("INCOME"), Lit(5.0));
  ASSERT_GT(dbms_->Update("v", spec).value(), 0u);
  // The read regenerates the residuals under the refit model.
  EXPECT_NE(dbms_->ReadColumn("v", "RESID").value(), before);
  ASSERT_TRUE(dbms_->Query("v", "mean", "RESID").ok());

  STATDB_ASSERT_OK(dbms_->Rollback("v", 0));
  EXPECT_EQ(dbms_->ReadColumn("v", "RESID").value(), before);
  auto mean = dbms_->Query("v", "mean", "RESID");
  ASSERT_TRUE(mean.ok());
  EXPECT_EQ(mean->source, AnswerSource::kComputed);
}

// Coercing a real value that int64 cannot hold into an int column is
// OUT_OF_RANGE, not a silently wrapped cell.
TEST_F(DbmsTest, UpdateOverflowingAnIntColumnFailsAndWritesNothing) {
  ASSERT_TRUE(MakeView("v").ok());
  ConcreteView* view = dbms_->GetView("v").value();
  const std::vector<Value> before = view->ReadColumn("AGE").value();
  UpdateSpec spec;
  spec.column = "AGE";
  spec.value = Mul(Col("AGE"), Lit(1e300));
  Result<uint64_t> r = dbms_->Update("v", spec);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(view->ReadColumn("AGE").value(), before);
  EXPECT_EQ(view->version(), 0u);
}


// A derived formula deeper than Expr::kMaxDepth is refused before the
// column or its rule is stored, so no manifest holds an expression that
// recovery would refuse to decode.
TEST_F(DbmsTest, TooDeepDerivedFormulaIsRefusedBeforeItIsStored) {
  ASSERT_TRUE(MakeView("v").ok());
  ExprPtr e = Col("INCOME");
  for (size_t i = 0; i < Expr::kMaxDepth; ++i) e = Neg(e);
  EXPECT_EQ(dbms_->AddDerivedColumn("v", DerivedColumnDef::Local("N", e))
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(dbms_->GetView("v").value()->schema().Contains("N"));
}
}  // namespace
}  // namespace statdb
