// Delta-batched incremental view maintenance (src/delta, DESIGN.md §16):
// the per-attribute delta buffer, the adaptive policy controller and its
// anti-flap hysteresis, the comoment maintainer's exact inverse, the
// flush barriers on the query paths (flush-before-serve vs allow_stale),
// and the manifest's pending-delta section across recovery.

#include <bit>
#include <map>
#include <cmath>

#include "common/rng.h"
#include "core/dbms.h"
#include "delta/delta_buffer.h"
#include "delta/policy.h"
#include "stats/partial_stats.h"
#include "flight/flight_recorder.h"
#include "gtest/gtest.h"
#include "relational/datagen.h"
#include "relational/expr.h"
#include "session/session.h"
#include "stats/correlation.h"
#include "tests/test_util.h"

namespace statdb {
namespace {

using delta::DeltaBuffer;
using delta::DeltaConfig;
using delta::MaintenanceStrategy;
using delta::PolicyController;
using delta::PolicyDecision;
using delta::RowDelta;

/// A staged change of one cell of the double column X (position 0).
ColumnChange NumChange(uint64_t row, double from, double to) {
  return ColumnChange{0, {RawChange{row, std::bit_cast<int64_t>(from),
                                    std::bit_cast<int64_t>(to)}}};
}

// --- delta buffer ------------------------------------------------------------

TEST(DeltaBufferTest, BuffersAndDrainsInFirstTouchOrder) {
  DeltaBuffer buf;
  // A staged change ascends by row, so first touch of row 3 before row 1
  // takes two changes.
  auto n = buf.Buffer("X", DataType::kDouble, NumChange(3, 1, 2),
                      /*coalesce=*/true);
  ASSERT_TRUE(n.ok());
  auto n2 = buf.Buffer("X", DataType::kDouble, NumChange(1, 5, 6),
                       /*coalesce=*/true);
  ASSERT_TRUE(n2.ok());
  EXPECT_EQ(n.value() + n2.value(), 2u);
  EXPECT_TRUE(buf.HasPending("X"));
  EXPECT_EQ(buf.PendingCount("X"), 2u);
  EXPECT_FALSE(buf.HasPending("Y"));

  std::vector<RowDelta> drained = buf.Drain("X");
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].row, 3u);  // first touch first
  EXPECT_EQ(drained[1].row, 1u);
  EXPECT_FALSE(buf.HasPending("X"));
  EXPECT_EQ(buf.TotalPending(), 0u);
}

TEST(DeltaBufferTest, CoalescesRepeatedWritesToOneRow) {
  DeltaBuffer buf;
  ASSERT_TRUE(
      buf.Buffer("X", DataType::kDouble, NumChange(7, 1, 2), true).ok());
  ASSERT_TRUE(
      buf.Buffer("X", DataType::kDouble, NumChange(7, 2, 3), true).ok());
  ASSERT_TRUE(
      buf.Buffer("X", DataType::kDouble, NumChange(7, 3, 9), true).ok());
  EXPECT_EQ(buf.PendingCount("X"), 1u);
  std::vector<RowDelta> d = buf.Drain("X");
  ASSERT_EQ(d.size(), 1u);
  // First old value, latest new value: one net delta per row.
  EXPECT_EQ(d[0].old_value, std::optional<double>(1));
  EXPECT_EQ(d[0].new_value, std::optional<double>(9));
}

TEST(DeltaBufferTest, CoalescedRoundTripIsNoOp) {
  DeltaBuffer buf;
  ASSERT_TRUE(
      buf.Buffer("X", DataType::kDouble, NumChange(7, 4, 8), true).ok());
  ASSERT_TRUE(
      buf.Buffer("X", DataType::kDouble, NumChange(7, 8, 4), true).ok());
  std::vector<RowDelta> d = buf.Drain("X");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_TRUE(d[0].IsNoOp());
}

TEST(DeltaBufferTest, WithoutCoalescingEveryChangeAppends) {
  DeltaBuffer buf;
  ASSERT_TRUE(
      buf.Buffer("X", DataType::kDouble, NumChange(7, 1, 2), false).ok());
  ASSERT_TRUE(
      buf.Buffer("X", DataType::kDouble, NumChange(7, 2, 3), false).ok());
  EXPECT_EQ(buf.PendingCount("X"), 2u);
}

TEST(DeltaBufferTest, NonNumericChangeBuffersNothing) {
  DeltaBuffer buf;
  ASSERT_TRUE(
      buf.Buffer("X", DataType::kDouble, NumChange(1, 1, 2), true).ok());
  // Atomicity: a change of a non-numeric (string-coded) column buffers
  // none of its cells.
  ColumnChange bad = NumChange(2, 3, 4);
  bad.cells.push_back(RawChange{5, 0, 1});
  EXPECT_EQ(buf.Buffer("X", DataType::kString, bad, true).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(buf.PendingCount("X"), 1u);  // only the first call's delta
}

TEST(DeltaBufferTest, NullEndpointsBecomeMissingOptionals) {
  DeltaBuffer buf;
  ColumnChange changes{
      0,
      {RawChange{0, std::nullopt, std::bit_cast<int64_t>(4.0)},    // fill
       RawChange{1, std::bit_cast<int64_t>(5.0), std::nullopt}}};  // invalidate
  ASSERT_TRUE(buf.Buffer("X", DataType::kDouble, changes, true).ok());
  std::vector<RowDelta> d = buf.Drain("X");
  ASSERT_EQ(d.size(), 2u);
  EXPECT_FALSE(d[0].old_value.has_value());
  EXPECT_EQ(d[0].new_value, std::optional<double>(4));
  EXPECT_EQ(d[1].old_value, std::optional<double>(5));
  EXPECT_FALSE(d[1].new_value.has_value());
}

TEST(DeltaBufferTest, DiscardDropsOneAttributeOnly) {
  DeltaBuffer buf;
  ASSERT_TRUE(
      buf.Buffer("X", DataType::kDouble, NumChange(1, 1, 2), true).ok());
  ASSERT_TRUE(
      buf.Buffer("Y", DataType::kDouble, NumChange(1, 1, 3), true).ok());
  buf.Discard("X");
  EXPECT_FALSE(buf.HasPending("X"));
  EXPECT_TRUE(buf.HasPending("Y"));
  EXPECT_EQ(buf.PendingAttributes(), std::vector<std::string>{"Y"});
}

// --- policy controller -------------------------------------------------------

TEST(PolicyControllerTest, AdviceBandsMirrorProfiler) {
  EXPECT_EQ(PolicyController::Advise(0, 0),
            MaintenanceStrategy::kEagerIncremental);  // cache-only
  EXPECT_EQ(PolicyController::Advise(100, 10),
            MaintenanceStrategy::kEagerIncremental);  // maintain
  EXPECT_EQ(PolicyController::Advise(5, 10),
            MaintenanceStrategy::kInvalidateLazy);    // invalidate
  EXPECT_EQ(PolicyController::Advise(20, 10),
            MaintenanceStrategy::kDeltaBatched);      // borderline
}

TEST(PolicyControllerTest, SwitchRequiresAFullHysteresisStreak) {
  PolicyController pc;
  DeltaConfig cfg;
  cfg.min_observations = 1;
  cfg.hysteresis_streak = 3;
  // Write-dominated advisories: lazy. Two in a row are not enough.
  for (int i = 0; i < 2; ++i) {
    PolicyDecision d = pc.Observe("v", "X", 1, 10, cfg);
    EXPECT_FALSE(d.switched);
    EXPECT_EQ(d.strategy, MaintenanceStrategy::kEagerIncremental);
  }
  // The third identical advisory completes the streak.
  PolicyDecision d = pc.Observe("v", "X", 1, 10, cfg);
  EXPECT_TRUE(d.switched);
  EXPECT_EQ(d.from, MaintenanceStrategy::kEagerIncremental);
  EXPECT_EQ(d.strategy, MaintenanceStrategy::kInvalidateLazy);
  EXPECT_EQ(pc.switches(), 1u);
  // Stable afterwards: same advisory, no more edges.
  EXPECT_FALSE(pc.Observe("v", "X", 1, 10, cfg).switched);
  EXPECT_EQ(pc.switches(), 1u);
}

TEST(PolicyControllerTest, FlappingAdvisoriesNeverSwitch) {
  PolicyController pc;
  DeltaConfig cfg;
  cfg.min_observations = 1;
  cfg.hysteresis_streak = 3;
  // A workload oscillating across the band boundary: the candidate
  // changes every observation, so the streak keeps resetting and the
  // strategy settles on the default instead of flapping.
  for (int i = 0; i < 20; ++i) {
    uint64_t accesses = (i % 2 == 0) ? 1 : 8;  // lazy vs eager advice
    PolicyDecision d = pc.Observe("v", "X", accesses, 4, cfg);
    EXPECT_FALSE(d.switched) << "observation " << i;
    EXPECT_EQ(d.strategy, MaintenanceStrategy::kEagerIncremental);
  }
  EXPECT_EQ(pc.switches(), 0u);
}

TEST(PolicyControllerTest, WarmupAndAdaptiveGates) {
  PolicyController pc;
  DeltaConfig cfg;
  cfg.min_observations = 16;
  cfg.hysteresis_streak = 1;
  // Below the warm-up threshold nothing moves, however lopsided.
  EXPECT_FALSE(pc.Observe("v", "X", 0, 10, cfg).switched);
  EXPECT_EQ(pc.Current("v", "X", cfg),
            MaintenanceStrategy::kEagerIncremental);
  // Past warm-up the same mix switches at streak 1.
  EXPECT_TRUE(pc.Observe("v", "X", 0, 20, cfg).switched);

  DeltaConfig frozen;
  frozen.adaptive = false;
  frozen.min_observations = 0;
  frozen.hysteresis_streak = 1;
  frozen.default_strategy = MaintenanceStrategy::kDeltaBatched;
  PolicyController pc2;
  EXPECT_FALSE(pc2.Observe("v", "X", 0, 1000, frozen).switched);
  EXPECT_EQ(pc2.Current("v", "X", frozen),
            MaintenanceStrategy::kDeltaBatched);
}

TEST(PolicyControllerTest, EraseViewForgetsStreaksAndStrategies) {
  PolicyController pc;
  DeltaConfig cfg;
  cfg.min_observations = 1;
  cfg.hysteresis_streak = 1;
  ASSERT_TRUE(pc.Observe("v", "X", 1, 10, cfg).switched);
  EXPECT_EQ(pc.Current("v", "X", cfg),
            MaintenanceStrategy::kInvalidateLazy);
  pc.EraseView("v");
  EXPECT_EQ(pc.Current("v", "X", cfg),
            MaintenanceStrategy::kEagerIncremental);
  // Prefix hygiene: erasing "v" must not clobber "v2".
  ASSERT_TRUE(pc.Observe("v2", "X", 1, 10, cfg).switched);
  pc.EraseView("v");
  EXPECT_EQ(pc.Current("v2", "X", cfg),
            MaintenanceStrategy::kInvalidateLazy);
}

// --- comoment maintainer -----------------------------------------------------

/// The function table's pair rule for `function` over (X, Y).
std::unique_ptr<IncrementalMaintainer> PairRule(const std::string& function) {
  return ManagementDatabase()
      .MakeMaintainer(function, FunctionParams(), {"X", "Y"})
      .value();
}

TEST(ComomentMaintainerTest, ExactInverseTracksRecompute) {
  Rng rng(9);
  std::vector<double> xs, ys;
  for (int i = 0; i < 200; ++i) {
    double x = rng.UniformDouble(0, 50);
    xs.push_back(x);
    ys.push_back(2 * x + rng.UniformDouble(-5, 5));
  }
  std::unique_ptr<IncrementalMaintainer> cm = PairRule("correlation");
  FamilyState seed;
  seed.comoments = ComputeComoments(xs, ys);
  ASSERT_TRUE(cm->Seed(seed));
  for (int step = 0; step < 300; ++step) {
    size_t i = size_t(rng.UniformInt(0, int64_t(xs.size()) - 1));
    double fresh = rng.UniformDouble(0, 50);
    // Mutate X at row i; Y's cell is the live co-value.
    RowDelta d{i, xs[i], fresh};
    xs[i] = fresh;
    auto r = cm->Apply({d.old_value, d.new_value, ys[i], ys[i]});
    STATDB_ASSERT_OK(r);
    EXPECT_NEAR(r->AsScalar().value(), PearsonR(xs, ys).value(), 1e-9)
        << "step " << step;
  }
}

TEST(ComomentMaintainerTest, RemovalFromEmptyStateFails) {
  std::unique_ptr<IncrementalMaintainer> cm = PairRule("covariance");
  ASSERT_TRUE(cm->Seed(FamilyState{}));
  EXPECT_EQ(cm->Apply({1.0, 2.0, 3.0, 3.0}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ComomentMaintainerTest, TouchesAndCoAttribute) {
  std::unique_ptr<IncrementalMaintainer> cm = PairRule("regression");
  EXPECT_NE(cm->CoAttribute("X"), nullptr);
  EXPECT_NE(cm->CoAttribute("Y"), nullptr);
  EXPECT_EQ(cm->CoAttribute("Z"), nullptr);
  EXPECT_EQ(*cm->CoAttribute("X"), "Y");
  EXPECT_EQ(*cm->CoAttribute("Y"), "X");
}

// --- end-to-end flush barriers ----------------------------------------------

class DeltaDbmsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage_ = MakeTapeDiskStorage();
    dbms_ = std::make_unique<StatisticalDbms>(storage_.get());
    CensusOptions opts;
    opts.rows = 800;
    Rng rng(53);
    auto data = GenerateCensusMicrodata(opts, &rng);
    ASSERT_TRUE(data.ok());
    raw_ = std::move(data).value();
    STATDB_ASSERT_OK(dbms_->LoadRawDataSet("census", raw_, "synthetic"));
    ViewDefinition def;
    def.source = "census";
    STATDB_ASSERT_OK(
        dbms_->CreateView("v", def, MaintenancePolicy::kIncremental)
            .status());
  }

  // Pin the whole DBMS on one strategy; no adaptive second-guessing.
  // The default threshold is effectively infinite so only query barriers
  // flush — a predicate update can queue hundreds of row deltas at once.
  void ForceStrategy(MaintenanceStrategy s,
                     size_t flush_threshold = size_t{1} << 40) {
    DeltaConfig cfg;
    cfg.adaptive = false;
    cfg.default_strategy = s;
    cfg.flush_threshold = flush_threshold;
    dbms_->set_delta_config(cfg);
  }

  static UpdateSpec BumpIncomes(double factor, int64_t age_below = 30) {
    UpdateSpec spec;
    spec.predicate = Lt(Col("AGE"), Lit(age_below));
    spec.column = "INCOME";
    spec.value = Mul(Col("INCOME"), Lit(factor));
    return spec;
  }

  std::unique_ptr<StorageManager> storage_;
  std::unique_ptr<StatisticalDbms> dbms_;
  Table raw_;
};

TEST_F(DeltaDbmsTest, BatchedDefersUntilQueryFlushes) {
  ForceStrategy(MaintenanceStrategy::kDeltaBatched);
  auto before = dbms_->Query("v", "mean", "INCOME");
  STATDB_ASSERT_OK(before);

  ASSERT_TRUE(dbms_->Update("v", BumpIncomes(2.0)).ok());
  auto pending = dbms_->PendingDeltas("v");
  STATDB_ASSERT_OK(pending);
  EXPECT_GT(pending.value(), 0u);

  // Flush-before-serve: the exact query forces the flush under the
  // entry's version, then serves the maintained (fresh) entry.
  auto after = dbms_->Query("v", "mean", "INCOME");
  STATDB_ASSERT_OK(after);
  EXPECT_EQ(after->source, AnswerSource::kCacheHit);
  EXPECT_EQ(dbms_->PendingDeltas("v").value(), 0u);
  EXPECT_NE(after->result, before->result);

  // Parity with a no-cache recompute over the mutated column.
  QueryOptions nocache;
  nocache.cache_result = false;
  auto fresh = dbms_->QueryParallel("v", "mean", "INCOME", {}, nocache);
  STATDB_ASSERT_OK(fresh);
  EXPECT_NEAR(after->result.AsScalar().value(),
              fresh->result.AsScalar().value(), 1e-9);
}

TEST_F(DeltaDbmsTest, AllowStaleSkipsTheFlushGate) {
  ForceStrategy(MaintenanceStrategy::kDeltaBatched);
  auto before = dbms_->Query("v", "mean", "INCOME");
  STATDB_ASSERT_OK(before);
  ASSERT_TRUE(dbms_->Update("v", BumpIncomes(2.0)).ok());
  ASSERT_GT(dbms_->PendingDeltas("v").value(), 0u);

  // allow_stale accepts the un-flushed entry and leaves the queue alone.
  QueryOptions stale;
  stale.allow_stale = true;
  auto served = dbms_->Query("v", "mean", "INCOME", {}, stale);
  STATDB_ASSERT_OK(served);
  EXPECT_EQ(served->result, before->result);
  EXPECT_GT(dbms_->PendingDeltas("v").value(), 0u);

  // An exact query right after still gets the maintained truth.
  auto exact = dbms_->Query("v", "mean", "INCOME");
  STATDB_ASSERT_OK(exact);
  EXPECT_EQ(dbms_->PendingDeltas("v").value(), 0u);
  EXPECT_NE(exact->result, before->result);
}

TEST_F(DeltaDbmsTest, ThresholdCrossingFlushesWithoutAQuery) {
  ForceStrategy(MaintenanceStrategy::kDeltaBatched, /*flush_threshold=*/3);
  STATDB_ASSERT_OK(dbms_->Query("v", "sum", "INCOME").status());
  // Each predicate update touches many rows at once, so the very first
  // one crosses a threshold of 3 and flushes inline.
  ASSERT_TRUE(dbms_->Update("v", BumpIncomes(1.1)).ok());
  EXPECT_EQ(dbms_->PendingDeltas("v").value(), 0u);
}

TEST_F(DeltaDbmsTest, ExplicitFlushBarrierDrainsEverything) {
  ForceStrategy(MaintenanceStrategy::kDeltaBatched);
  STATDB_ASSERT_OK(dbms_->Query("v", "mean", "INCOME").status());
  STATDB_ASSERT_OK(dbms_->Query("v", "max", "AGE").status());
  ASSERT_TRUE(dbms_->Update("v", BumpIncomes(2.0)).ok());
  UpdateSpec ages;
  ages.predicate = Gt(Col("AGE"), Lit(int64_t{60}));
  ages.column = "AGE";
  ages.value = Add(Col("AGE"), Lit(int64_t{1}));
  ASSERT_TRUE(dbms_->Update("v", ages).ok());
  ASSERT_GT(dbms_->PendingDeltas("v").value(), 0u);

  STATDB_ASSERT_OK(dbms_->FlushDeltas("v"));
  EXPECT_EQ(dbms_->PendingDeltas("v").value(), 0u);
  // Both maintained entries serve fresh after the barrier.
  EXPECT_EQ(dbms_->Query("v", "mean", "INCOME")->source,
            AnswerSource::kCacheHit);
  EXPECT_EQ(dbms_->Query("v", "max", "AGE")->source,
            AnswerSource::kCacheHit);
}

TEST_F(DeltaDbmsTest, EagerMatchesBatchedBitForBit) {
  // Same data, same updates, opposite strategies: the flush engine is
  // shared, so the maintained results must be identical — bit for bit.
  auto run = [this](MaintenanceStrategy s) {
    auto sm = MakeTapeDiskStorage();
    StatisticalDbms db(sm.get());
    EXPECT_TRUE(db.LoadRawDataSet("census", raw_, "synthetic").ok());
    ViewDefinition def;
    def.source = "census";
    EXPECT_TRUE(
        db.CreateView("v", def, MaintenancePolicy::kIncremental).ok());
    DeltaConfig cfg;
    cfg.adaptive = false;
    cfg.default_strategy = s;
    db.set_delta_config(cfg);
    EXPECT_TRUE(db.Query("v", "mean", "INCOME").ok());
    EXPECT_TRUE(db.Query("v", "sum", "INCOME").ok());
    EXPECT_TRUE(db.Update("v", BumpIncomes(1.25)).ok());
    EXPECT_TRUE(db.Update("v", BumpIncomes(0.5, 60)).ok());
    std::pair<SummaryResult, SummaryResult> out;
    out.first = db.Query("v", "mean", "INCOME")->result;
    out.second = db.Query("v", "sum", "INCOME")->result;
    return out;
  };
  auto eager = run(MaintenanceStrategy::kEagerIncremental);
  auto batched = run(MaintenanceStrategy::kDeltaBatched);
  EXPECT_EQ(eager.first, batched.first);
  EXPECT_EQ(eager.second, batched.second);
}

TEST_F(DeltaDbmsTest, PolicySwitchEmitsFlightEventExactlyOnce) {
  DeltaConfig cfg;
  cfg.adaptive = true;
  cfg.min_observations = 1;
  cfg.hysteresis_streak = 2;
  dbms_->set_delta_config(cfg);
  dbms_->flight().Clear();

  // A write-only workload: every update observes "invalidate" advice.
  // The second observation completes the streak; later ones are stable.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(dbms_->Update("v", BumpIncomes(1.01)).ok());
  }
  int switches = 0;
  for (const FlightEvent& e : dbms_->flight().SnapshotEvents()) {
    if (e.kind != FlightEventKind::kPolicySwitch) continue;
    ++switches;
    EXPECT_STREQ(e.label, "v.INCOME");
    EXPECT_EQ(e.a, int64_t(MaintenanceStrategy::kEagerIncremental));
    EXPECT_EQ(e.b, int64_t(MaintenanceStrategy::kInvalidateLazy));
  }
  EXPECT_EQ(switches, 1);
  EXPECT_EQ(dbms_->delta_policy().switches(), 1u);
}

TEST_F(DeltaDbmsTest, DeltaFlushEventsCarryBatchSize) {
  ForceStrategy(MaintenanceStrategy::kDeltaBatched);
  STATDB_ASSERT_OK(dbms_->Query("v", "mean", "INCOME").status());
  ASSERT_TRUE(dbms_->Update("v", BumpIncomes(2.0)).ok());
  uint64_t pending = dbms_->PendingDeltas("v").value();
  ASSERT_GT(pending, 0u);
  dbms_->flight().Clear();
  STATDB_ASSERT_OK(dbms_->FlushDeltas("v"));
  int flushes = 0;
  for (const FlightEvent& e : dbms_->flight().SnapshotEvents()) {
    if (e.kind != FlightEventKind::kDeltaFlush) continue;
    ++flushes;
    EXPECT_STREQ(e.label, "v.INCOME");
    EXPECT_EQ(e.a, int64_t(pending));  // batch size
    EXPECT_GE(e.b, 1);                 // entries refreshed
  }
  EXPECT_EQ(flushes, 1);
}

// --- one maintainer map: one- and two-attribute rules -----------------------

/// The kMaintainerFire events recorded since the last Clear, by label.
std::map<std::string, std::vector<int64_t>> MaintainerFires(
    StatisticalDbms* dbms) {
  std::map<std::string, std::vector<int64_t>> fires;
  for (const FlightEvent& e : dbms->flight().SnapshotEvents()) {
    if (e.kind == FlightEventKind::kMaintainerFire) {
      fires[e.label].push_back(e.a);
    }
  }
  return fires;
}

TEST_F(DeltaDbmsTest, OneFlushRefreshesOneAndTwoAttributeRulesAlike) {
  ForceStrategy(MaintenanceStrategy::kDeltaBatched);
  STATDB_ASSERT_OK(dbms_->Query("v", "mean", "INCOME").status());
  STATDB_ASSERT_OK(
      dbms_->QueryBivariate("v", "correlation", "INCOME", "HOURS_WORKED")
          .status());
  // A round trip on the young rows coalesces to no-ops; the old rows'
  // bump is the batch's only real change.
  auto young = dbms_->Update("v", BumpIncomes(2.0));
  ASSERT_TRUE(young.ok());
  ASSERT_TRUE(dbms_->Update("v", BumpIncomes(0.5)).ok());
  UpdateSpec old_rows;
  old_rows.predicate = Gt(Col("AGE"), Lit(int64_t{60}));
  old_rows.column = "INCOME";
  old_rows.value = Add(Col("INCOME"), Lit(1.0));
  auto changed = dbms_->Update("v", old_rows);
  ASSERT_TRUE(changed.ok());
  ASSERT_GT(*young, 0u);
  ASSERT_GT(*changed, 0u);
  ASSERT_EQ(dbms_->PendingDeltas("v").value(), *young + *changed);

  dbms_->flight().Clear();
  STATDB_ASSERT_OK(dbms_->FlushDeltas("v"));
  auto fires = MaintainerFires(dbms_.get());
  EXPECT_EQ(fires["v.mean(INCOME)"], std::vector<int64_t>{int64_t(*changed)});
  EXPECT_EQ(fires["v.correlation(INCOME)"],
            std::vector<int64_t>{int64_t(*changed)});
  EXPECT_EQ(fires.size(), 2u);
  EXPECT_EQ(dbms_->Query("v", "mean", "INCOME")->source,
            AnswerSource::kCacheHit);
  EXPECT_EQ(
      dbms_->QueryBivariate("v", "correlation", "INCOME", "HOURS_WORKED")
          ->source,
      AnswerSource::kCacheHit);
}

TEST_F(DeltaDbmsTest, LazySwitchDropsOneAndTwoAttributeRulesAlike) {
  DeltaConfig cfg;
  cfg.adaptive = true;
  cfg.min_observations = 1;
  cfg.hysteresis_streak = 2;
  dbms_->set_delta_config(cfg);
  STATDB_ASSERT_OK(dbms_->Query("v", "mean", "INCOME").status());
  STATDB_ASSERT_OK(
      dbms_->QueryBivariate("v", "correlation", "HOURS_WORKED", "INCOME")
          .status());
  // Write-only traffic on INCOME switches it to lazy.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(dbms_->Update("v", BumpIncomes(1.01)).ok());
  }
  ASSERT_EQ(dbms_->delta_policy().switches(), 1u);

  dbms_->flight().Clear();
  ASSERT_TRUE(dbms_->Update("v", BumpIncomes(1.01)).ok());
  UpdateSpec hours;
  hours.predicate = Lt(Col("AGE"), Lit(int64_t{30}));
  hours.column = "HOURS_WORKED";
  hours.value = Add(Col("HOURS_WORKED"), Lit(1.0));
  ASSERT_TRUE(dbms_->Update("v", hours).ok());
  STATDB_ASSERT_OK(dbms_->FlushDeltas("v"));
  EXPECT_TRUE(MaintainerFires(dbms_.get()).empty());
  EXPECT_EQ(dbms_->Query("v", "mean", "INCOME")->source,
            AnswerSource::kComputed);
  EXPECT_EQ(
      dbms_->QueryBivariate("v", "correlation", "HOURS_WORKED", "INCOME")
          ->source,
      AnswerSource::kComputed);
}

TEST_F(DeltaDbmsTest, PairRuleOverOneAttributeTwiceStaysExact) {
  STATDB_ASSERT_OK(
      dbms_->QueryBivariate("v", "correlation", "INCOME", "INCOME").status());
  STATDB_ASSERT_OK(
      dbms_->QueryBivariate("v", "covariance", "INCOME", "INCOME").status());
  for (double factor : {3.0, 0.25}) {
    ASSERT_TRUE(dbms_->Update("v", BumpIncomes(factor)).ok());
    auto r = dbms_->QueryBivariate("v", "correlation", "INCOME", "INCOME");
    auto cov = dbms_->QueryBivariate("v", "covariance", "INCOME", "INCOME");
    STATDB_ASSERT_OK(r);
    STATDB_ASSERT_OK(cov);
    // Maintained, not recomputed.
    EXPECT_EQ(r->source, AnswerSource::kCacheHit);
    EXPECT_EQ(cov->source, AnswerSource::kCacheHit);
    EXPECT_NEAR(r->result.AsScalar().value(), 1.0, 1e-12);
    const double var =
        dbms_->Query("v", "variance", "INCOME")->result.AsScalar().value();
    EXPECT_NEAR(cov->result.AsScalar().value(), var, 1e-9 * var);
  }
}

TEST_F(DeltaDbmsTest, RollbackDiscardsPendingDeltas) {
  ForceStrategy(MaintenanceStrategy::kDeltaBatched);
  STATDB_ASSERT_OK(dbms_->Query("v", "mean", "INCOME").status());
  uint64_t v0 = dbms_->GetView("v").value()->version();
  ASSERT_TRUE(dbms_->Update("v", BumpIncomes(2.0)).ok());
  ASSERT_GT(dbms_->PendingDeltas("v").value(), 0u);
  STATDB_ASSERT_OK(dbms_->Rollback("v", v0));
  // The queued deltas describe undone mutations: gone, not flushed.
  EXPECT_EQ(dbms_->PendingDeltas("v").value(), 0u);
  // And the recomputed answer matches the pre-update raw data.
  auto col = raw_.NumericColumn("INCOME");
  ASSERT_TRUE(col.ok());
  double expected = 0;
  for (double x : *col) expected += x;
  expected /= double(col->size());
  auto after = dbms_->Query("v", "mean", "INCOME");
  STATDB_ASSERT_OK(after);
  EXPECT_NEAR(after->result.AsScalar().value(), expected, 1e-9);
}

TEST_F(DeltaDbmsTest, SessionSnapshotIgnoresPendingHeadDeltas) {
  ForceStrategy(MaintenanceStrategy::kDeltaBatched);
  STATDB_ASSERT_OK(dbms_->Query("v", "mean", "INCOME").status());
  auto mgr = dbms_->EnableSessions({});
  ASSERT_TRUE(mgr.ok());
  auto s = (*mgr)->Open("alice");
  ASSERT_TRUE(s.ok());
  auto pinned_before = (*s)->Query("v", "mean", "INCOME");
  STATDB_ASSERT_OK(pinned_before);

  ASSERT_TRUE(dbms_->Update("v", BumpIncomes(2.0)).ok());
  ASSERT_GT(dbms_->PendingDeltas("v").value(), 0u);

  // MVCC pin vs flush barrier: the pinned read resolves against the
  // session snapshot, never against the head summary cache — so it must
  // neither trigger a flush nor observe the post-update value.
  auto pinned_after = (*s)->Query("v", "mean", "INCOME");
  STATDB_ASSERT_OK(pinned_after);
  EXPECT_EQ(pinned_after->result, pinned_before->result);
  EXPECT_GT(dbms_->PendingDeltas("v").value(), 0u);

  // The head read flushes and diverges from the pinned snapshot.
  auto head = dbms_->Query("v", "mean", "INCOME");
  STATDB_ASSERT_OK(head);
  EXPECT_EQ(dbms_->PendingDeltas("v").value(), 0u);
  EXPECT_NE(head->result, pinned_before->result);
  STATDB_ASSERT_OK((*s)->Close());
}

// --- recovery of the pending-delta section -----------------------------------

TEST(DeltaRecoveryTest, PendingDeltasInvalidateAcrossCrash) {
  auto storage = std::make_unique<StorageManager>();
  STATDB_ASSERT_OK(
      storage->AddDevice("tape", DeviceCostModel::Tape(), 256));
  STATDB_ASSERT_OK(
      storage->AddDevice("disk", DeviceCostModel::Disk(), 1024));
  STATDB_ASSERT_OK(storage->AddDevice("wal", DeviceCostModel::Disk(), 8));
  CensusOptions opts;
  opts.rows = 400;
  Rng rng(71);
  Table raw = GenerateCensusMicrodata(opts, &rng).value();

  SummaryResult stale_mean;
  {
    StatisticalDbms db(storage.get());
    STATDB_ASSERT_OK(db.EnableDurability("wal"));
    STATDB_ASSERT_OK(db.LoadRawDataSet("census", raw, "synthetic"));
    ViewDefinition def;
    def.source = "census";
    STATDB_ASSERT_OK(
        db.CreateView("v", def, MaintenancePolicy::kIncremental).status());
    delta::DeltaConfig cfg;
    cfg.adaptive = false;
    cfg.default_strategy = delta::MaintenanceStrategy::kDeltaBatched;
    db.set_delta_config(cfg);
    STATDB_ASSERT_OK(db.Query("v", "mean", "INCOME").status());
    stale_mean = db.Query("v", "mean", "INCOME")->result;
    UpdateSpec spec;
    spec.predicate = Lt(Col("AGE"), Lit(int64_t{30}));
    spec.column = "INCOME";
    spec.value = Mul(Col("INCOME"), Lit(2.0));
    ASSERT_TRUE(db.Update("v", spec).ok());
    // Crash with the flush still owed: the commit shipped the data pages
    // and the manifest's pending (view, attr) pairs, not the flush.
    ASSERT_GT(db.PendingDeltas("v").value(), 0u);
  }

  StatisticalDbms db2(storage.get());
  STATDB_ASSERT_OK(db2.EnableDurability("wal"));
  STATDB_ASSERT_OK(db2.Recover());
  // The un-flushed entry must not come back fresh: recovery stamped it
  // stale, so the query recomputes over the (durable) mutated pages.
  auto after = db2.Query("v", "mean", "INCOME");
  STATDB_ASSERT_OK(after);
  EXPECT_EQ(after->source, AnswerSource::kComputed);
  EXPECT_NE(after->result, stale_mean);
}

}  // namespace
}  // namespace statdb
