// Per-session metric attribution under contention (DESIGN.md §10).
//
// The invariant: every per-session instrument family sums EXACTLY to
// its global mirror — session.<label>.queries over all labels equals
// sessions.queries, and likewise for cache_hits / rows / pages /
// flushes and the query_ms histogram count. The bump sites increment
// the session atomic, the per-label instrument and the global mirror
// together (one helper, never independently), so no interleaving of
// reader threads, session churn and concurrent head-path writers may
// leave the books off by even one. Counters are integers throughout:
// "bit-exact" here is plain equality, no tolerance.
//
// Runs under the stress label so the TSan lane sweeps it.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/dbms.h"
#include "gtest/gtest.h"
#include "relational/datagen.h"
#include "relational/expr.h"
#include "session/session.h"
#include "tests/test_util.h"

namespace statdb {
namespace {

using session::Session;
using session::SessionConfig;
using session::SessionManager;

struct AttributionScenario {
  const char* name;
  size_t rows;
  int readers;            // session-owning threads
  int sessions_per_reader;
  int queries_per_session;
  int writers;            // head-path update threads (not session-attributed)
  int updates_per_writer;
};

constexpr AttributionScenario kScenarios[] = {
    {"read_only_churn", 400, 4, 6, 8, 0, 0},
    {"readers_vs_writer", 300, 4, 4, 6, 1, 10},
    {"heavy_churn_two_writers", 250, 6, 5, 4, 2, 8},
};

class AttributionStressTest
    : public ::testing::TestWithParam<AttributionScenario> {
 protected:
  void SetUp() override {
    storage_ = MakeTapeDiskStorage();
    dbms_ = std::make_unique<StatisticalDbms>(storage_.get());
    CensusOptions opts;
    opts.rows = GetParam().rows;
    Rng rng(821);
    auto data = GenerateCensusMicrodata(opts, &rng);
    ASSERT_TRUE(data.ok());
    STATDB_ASSERT_OK(dbms_->LoadRawDataSet("census", *data, "synthetic"));
    ViewDefinition def;
    def.source = "census";
    STATDB_ASSERT_OK(
        dbms_->CreateView("v", def, MaintenancePolicy::kInvalidate)
            .status());
  }

  std::unique_ptr<StorageManager> storage_;
  std::unique_ptr<StatisticalDbms> dbms_;
};

TEST_P(AttributionStressTest, PerSessionSumsEqualGlobalMirrorsExactly) {
  const AttributionScenario& sc = GetParam();
  SessionConfig cfg;
  cfg.max_sessions = size_t(sc.readers) + 2;
  SessionManager& mgr = *dbms_->EnableSessions(cfg).value();

  // Expected per-label totals, accumulated from Session::Stats at each
  // close — the third book the registry must agree with.
  struct LabelTotals {
    std::atomic<uint64_t> queries{0};
    std::atomic<uint64_t> cache_hits{0};
    std::atomic<uint64_t> rows{0};
    std::atomic<uint64_t> pages{0};
    std::atomic<uint64_t> flushes{0};
  };
  std::vector<LabelTotals> totals(sc.readers);

  const char* battery[] = {"mean", "min", "max", "variance"};
  std::atomic<bool> start{false};
  std::vector<std::thread> threads;

  for (int r = 0; r < sc.readers; ++r) {
    threads.emplace_back([&, r] {
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      Rng rng(uint64_t(1000 + r));
      std::string label = "lane" + std::to_string(r);
      for (int s = 0; s < sc.sessions_per_reader; ++s) {
        auto open = mgr.Open(label);
        if (!open.ok()) continue;  // admission race: fine, just retry next
        Session* sess = open.value();
        for (int q = 0; q < sc.queries_per_session; ++q) {
          // Repeat functions inside one session so cache hits occur.
          const char* fn = battery[rng.UniformInt(0, 3)];
          const char* attr = (rng.UniformInt(0, 1) == 0) ? "INCOME" : "AGE";
          (void)sess->Query("v", fn, attr);
          if (rng.UniformInt(0, 7) == 0) (void)sess->ReadColumn("v", "INCOME");
        }
        Session::Stats st = sess->stats();
        totals[r].queries.fetch_add(st.queries);
        totals[r].cache_hits.fetch_add(st.cache_hits);
        totals[r].rows.fetch_add(st.rows);
        totals[r].pages.fetch_add(st.pages);
        totals[r].flushes.fetch_add(st.flushes);
        EXPECT_TRUE(mgr.Close(sess).ok());
      }
    });
  }
  for (int w = 0; w < sc.writers; ++w) {
    threads.emplace_back([&, w] {
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int u = 0; u < sc.updates_per_writer; ++u) {
        UpdateSpec spec;
        spec.predicate = Lt(Col("AGE"), Lit(int64_t{25 + w}));
        spec.column = "INCOME";
        spec.value = Mul(Col("INCOME"), Lit(1.0 + 0.001 * (u + 1)));
        (void)dbms_->Update("v", spec);
      }
    });
  }

  start.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();
  mgr.CloseAll();

  MetricsRegistry& reg = dbms_->metrics();
  auto counter = [&reg](const std::string& name) {
    return reg.GetCounter(name)->Get();
  };

  uint64_t sum_queries = 0, sum_hits = 0, sum_rows = 0, sum_pages = 0,
           sum_flushes = 0, expect_queries = 0, expect_hits = 0,
           expect_rows = 0, expect_pages = 0;
  for (int r = 0; r < sc.readers; ++r) {
    const std::string scope = "session.lane" + std::to_string(r) + ".";
    sum_queries += counter(scope + "queries");
    sum_hits += counter(scope + "cache_hits");
    sum_rows += counter(scope + "rows");
    sum_pages += counter(scope + "pages");
    sum_flushes += counter(scope + "flushes");
    // Per-label instruments agree with the handles' own books: every
    // session of label lane<r> was drained into totals[r] before close.
    EXPECT_EQ(counter(scope + "queries"), totals[r].queries.load())
        << scope;
    EXPECT_EQ(counter(scope + "cache_hits"), totals[r].cache_hits.load())
        << scope;
    EXPECT_EQ(counter(scope + "rows"), totals[r].rows.load()) << scope;
    EXPECT_EQ(counter(scope + "pages"), totals[r].pages.load()) << scope;
    expect_queries += totals[r].queries.load();
    expect_hits += totals[r].cache_hits.load();
    expect_rows += totals[r].rows.load();
    expect_pages += totals[r].pages.load();
  }

  // The attribution invariant: bit-exact, not approximate.
  EXPECT_EQ(sum_queries, counter("sessions.queries"));
  EXPECT_EQ(sum_hits, counter("sessions.cache_hits"));
  EXPECT_EQ(sum_rows, counter("sessions.rows"));
  EXPECT_EQ(sum_pages, counter("sessions.pages"));
  EXPECT_EQ(sum_flushes, counter("sessions.flushes"));
  EXPECT_EQ(sum_queries, expect_queries);
  EXPECT_EQ(sum_hits, expect_hits);
  EXPECT_EQ(sum_rows, expect_rows);
  EXPECT_EQ(sum_pages, expect_pages);
  // Read-only sessions never flush; the global mirror must agree.
  EXPECT_EQ(counter("sessions.flushes"), 0u);
  // Every session query recorded exactly one latency sample.
  EXPECT_EQ(reg.GetHistogram("sessions.query_ms")->Count(), sum_queries);
  uint64_t hist_sum = 0;
  for (int r = 0; r < sc.readers; ++r) {
    hist_sum += reg.GetHistogram("session.lane" + std::to_string(r) +
                                 ".query_ms")
                    ->Count();
  }
  EXPECT_EQ(hist_sum, sum_queries);
  // Sanity: the harness actually exercised the paths it audits.
  EXPECT_GT(sum_queries, 0u);
  EXPECT_GT(sum_rows, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, AttributionStressTest, ::testing::ValuesIn(kScenarios),
    [](const ::testing::TestParamInfo<AttributionScenario>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace statdb
