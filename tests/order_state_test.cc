// The order state (DESIGN.md §14): each holistic answer read from it
// equals the stats/ computation over the gathered column, through every
// query route and worker count, and the state follows every write to
// its column: updates (to NULL, NaN and -0 too), rollbacks,
// regenerations, reorganizations, flushes and direct installs, under
// every maintenance policy.

#include "stats/order_state.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "check/db_auditor.h"
#include "common/rng.h"
#include "core/dbms.h"
#include "gtest/gtest.h"
#include "relational/expr.h"
#include "rules/function_registry.h"
#include "tests/test_util.h"

namespace statdb {
namespace {

const double kNaN = std::numeric_limits<double>::quiet_NaN();

using Cells = std::vector<std::optional<double>>;

/// Equal numbers; NaN equals NaN and -0 equals +0 (which zero a rank
/// holds is the order's choice, as with nth_element).
bool SameNumber(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

/// `got` is the answer `want` is, or the same error. Exact, except
/// trimmed_mean's sum, which runs in ascending order (DESIGN.md §14):
/// it may differ by the rounding of a sum of `column`'s values.
void ExpectSameAnswer(const std::string& function,
                      const Result<SummaryResult>& got,
                      const Result<SummaryResult>& want,
                      const std::string& where,
                      const std::vector<double>& column) {
  ASSERT_EQ(got.ok(), want.ok())
      << where << ": " << (got.ok() ? want : got).status().ToString();
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << where;
    EXPECT_EQ(got.status().message(), want.status().message()) << where;
    return;
  }
  const SummaryResult& a = got.value();
  const SummaryResult& b = want.value();
  ASSERT_EQ(a.kind(), b.kind()) << where;
  const std::string shown = a.ToString() + " vs " + b.ToString();
  switch (a.kind()) {
    case SummaryResultKind::kScalar: {
      const double x = a.AsScalar().value();
      const double y = b.AsScalar().value();
      if (function == "trimmed_mean" && !std::isnan(y)) {
        double largest = 0;
        for (double v : column) {
          if (!std::isnan(v)) largest = std::max(largest, std::abs(v));
        }
        EXPECT_NEAR(x, y, 1e-12 * largest) << where;
      } else {
        EXPECT_TRUE(SameNumber(x, y)) << where << ": " << shown;
      }
      return;
    }
    case SummaryResultKind::kVector: {
      const std::vector<double>& x = *a.AsVector().value();
      const std::vector<double>& y = *b.AsVector().value();
      ASSERT_EQ(x.size(), y.size()) << where;
      for (size_t i = 0; i < x.size(); ++i) {
        EXPECT_TRUE(SameNumber(x[i], y[i])) << where << ": " << shown;
      }
      return;
    }
    case SummaryResultKind::kHistogram: {
      const Histogram& x = *a.AsHistogram().value();
      const Histogram& y = *b.AsHistogram().value();
      ASSERT_EQ(x.edges.size(), y.edges.size()) << where;
      for (size_t i = 0; i < x.edges.size(); ++i) {
        EXPECT_TRUE(SameNumber(x.edges[i], y.edges[i])) << where;
      }
      EXPECT_EQ(x.counts, y.counts) << where;
      EXPECT_EQ(x.below, y.below) << where;
      EXPECT_EQ(x.above, y.above) << where;
      return;
    }
    default:
      FAIL() << where << ": unexpected kind " << shown;
  }
}

/// Every holistic function, with parameters that reach each branch and
/// each error.
std::vector<QueryRequest> HolisticRequests(const std::string& attr) {
  auto req = [&attr](const char* fn, FunctionParams p = {}) {
    return QueryRequest{fn, attr, std::move(p)};
  };
  return {req("median"),
          req("quantile", FunctionParams().Set("p", 0.0)),
          req("quantile", FunctionParams().Set("p", 0.37)),
          req("quantile", FunctionParams().Set("p", 1.0)),
          req("quantile", FunctionParams().Set("p", 1.5)),
          req("quartiles"),
          req("trimmed_mean"),
          req("trimmed_mean", FunctionParams().Set("lo", 0.2).Set("hi", 0.7)),
          req("trimmed_mean", FunctionParams().Set("lo", 0.6).Set("hi", 0.4)),
          req("outside_k_sigma"),
          req("outside_k_sigma", FunctionParams().Set("k", 0.5)),
          req("outside_k_sigma", FunctionParams().Set("k", -1.0)),
          req("histogram"),
          req("histogram", FunctionParams().Set("buckets", 7)),
          req("histogram", FunctionParams().Set("buckets", 1))};
}

/// ID, a category code G and the value column X.
Table MakeTable(const Cells& x) {
  Table t(Schema({Attribute::Numeric("ID", DataType::kInt64),
                  Attribute::Category("G", DataType::kInt64),
                  Attribute::Numeric("X", DataType::kDouble)}));
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_TRUE(t.AppendRow({Value::Int(int64_t(i)),
                             Value::Int(int64_t((i * 7) % 5)),
                             x[i] ? Value::Real(*x[i]) : Value::Null()})
                    .ok());
  }
  return t;
}

struct Installation {
  std::unique_ptr<StorageManager> storage;
  std::unique_ptr<StatisticalDbms> db;
};

Installation Open(const Cells& x,
                  MaintenancePolicy policy = MaintenancePolicy::kInvalidate) {
  Installation in;
  in.storage = MakeTapeDiskStorage();
  in.db = std::make_unique<StatisticalDbms>(in.storage.get());
  EXPECT_TRUE(in.db->LoadRawDataSet("raw", MakeTable(x)).ok());
  ViewDefinition def;
  def.source = "raw";
  EXPECT_TRUE(in.db->CreateView("v", def, policy).ok());
  return in;
}

std::vector<double> Gather(StatisticalDbms* db, const std::string& attr) {
  return db->GetView("v").value()->ReadNumericColumn(attr).value();
}

struct DataSet {
  const char* name;
  Cells x;
};

std::vector<DataSet> DataSets() {
  Rng rng(7);
  Cells mixed;
  for (int i = 0; i < 300; ++i) {
    if (i % 37 == 5) {
      mixed.push_back(kNaN);
    } else if (i % 41 == 7) {
      mixed.push_back(std::nullopt);
    } else if (i % 29 == 3) {
      mixed.push_back(i % 2 == 0 ? -0.0 : 0.0);
    } else {
      mixed.push_back(0.5 * double(rng.UniformInt(-10, 20)));
    }
  }
  mixed[11] = 1e6;
  mixed[12] = -1e6;
  Cells spread;
  for (int i = 0; i < 500; ++i) {
    spread.push_back(i % 97 == 13 ? Cells::value_type(kNaN)
                                  : rng.UniformDouble(-1e3, 1e3));
  }
  return {{"mixed", mixed},
          {"spread", spread},
          {"all_nan", Cells(50, kNaN)},
          {"one_row", {3.5}},
          {"one_nan", {kNaN}},
          {"nan_and_value", {kNaN, 2.0}},
          {"nulls_only", Cells(20, std::nullopt)},
          {"zeros", {-0.0, 0.0, -0.0, 0.0, 0.0}}};
}

// Every holistic answer equals fns.Compute over the gathered column, on
// each route at one and two workers, whether the call builds the state
// (the first) or reads it (the second).
TEST(OrderStateParityTest, EveryRouteAnswersAsTheGatheredColumn) {
  const FunctionRegistry fns = FunctionRegistry::WithBuiltins();
  QueryOptions no_cache;
  no_cache.cache_result = false;
  enum class Route { kQuery, kQueryParallel, kQueryMany };
  struct RouteAt {
    const char* name;
    Route route;
    size_t workers;
  };
  const RouteAt kRoutes[] = {{"query", Route::kQuery, 1},
                             {"query_parallel/2", Route::kQueryParallel, 2},
                             {"query_many/1", Route::kQueryMany, 1},
                             {"query_many/2", Route::kQueryMany, 2}};
  for (const DataSet& data : DataSets()) {
    const std::vector<QueryRequest> requests = HolisticRequests("X");
    for (const RouteAt& route : kRoutes) {
      Installation in = Open(data.x);
      const std::vector<double> column = Gather(in.db.get(), "X");
      std::vector<Result<SummaryResult>> want;
      std::vector<QueryRequest> answerable;
      for (const QueryRequest& r : requests) {
        want.push_back(fns.Compute(r.function, column, r.params));
        if (want.back().ok()) answerable.push_back(r);
      }
      for (int pass = 0; pass < 2; ++pass) {
        const std::string where = std::string(data.name) + "/" + route.name +
                                  "/pass " + std::to_string(pass);
        if (route.route == Route::kQueryMany) {
          // A batch fails on its first failing request: the errors are
          // checked on the single-request routes.
          if (answerable.empty()) continue;
          auto got =
              in.db->QueryMany("v", answerable, no_cache, route.workers);
          ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
          size_t k = 0;
          for (size_t i = 0; i < requests.size(); ++i) {
            if (!want[i].ok()) continue;
            ExpectSameAnswer(requests[i].function, got.value()[k++].result,
                             want[i], where + " " + requests[i].function,
                             column);
          }
          continue;
        }
        for (size_t i = 0; i < requests.size(); ++i) {
          const QueryRequest& r = requests[i];
          Result<QueryAnswer> got =
              route.route == Route::kQueryParallel
                  ? in.db->QueryParallel("v", r.function, "X", r.params,
                                         no_cache, route.workers)
                  : in.db->Query("v", r.function, "X", r.params, no_cache);
          Result<SummaryResult> result =
              got.ok() ? Result<SummaryResult>(got->result)
                       : Result<SummaryResult>(got.status());
          ExpectSameAnswer(r.function, result, want[i],
                           where + " " + r.function + " " +
                               r.params.Encode(),
                           column);
        }
      }
    }
  }
}

// The histogram of a column holding one NaN: the NaN counts nowhere.
// Casting it to a bucket index is undefined and crashed the process.
TEST(OrderStateParityTest, HistogramOfAColumnWithNaN) {
  Cells x;
  for (int i = 0; i < 1000; ++i) x.push_back(double(i % 17));
  x[500] = kNaN;
  Installation in = Open(x);
  auto h = in.db->Query("v", "histogram", "X");
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(h->result.AsHistogram().value()->TotalCount(), 999u);
  const FunctionRegistry fns = FunctionRegistry::WithBuiltins();
  EXPECT_EQ(h->result,
            fns.Compute("histogram", Gather(in.db.get(), "X"), {}).value());
}

uint64_t CounterOf(StatisticalDbms* db, const std::string& name) {
  return db->metrics().GetCounter(name)->Get();
}

// A small change merges into the state; a write the state did not see
// and a change too large to merge rebuild it; a reorganization keeps it;
// recovery starts without it.
TEST(OrderStateLifecycleTest, MergesSmallChangesAndRebuildsOnTheRest) {
  Cells x;
  for (int i = 0; i < 2000; ++i) x.push_back(double((i * 37) % 1001));
  auto storage = MakeTapeDiskStorage();
  STATDB_ASSERT_OK(
      storage->AddDevice("wal", DeviceCostModel::Disk(), 8).status());
  StatisticalDbms db(storage.get());
  STATDB_ASSERT_OK(db.EnableDurability("wal"));
  STATDB_ASSERT_OK(db.LoadRawDataSet("raw", MakeTable(x)));
  ViewDefinition def;
  def.source = "raw";
  STATDB_ASSERT_OK(db.CreateView("v", def, MaintenancePolicy::kInvalidate)
                       .status());
  QueryOptions no_cache;
  no_cache.cache_result = false;
  const FunctionRegistry fns = FunctionRegistry::WithBuiltins();
  auto check = [&](const char* fn) {
    auto got = db.Query("v", fn, "X", {}, no_cache);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const std::vector<double> column = Gather(&db, "X");
    ExpectSameAnswer(fn, got->result, fns.Compute(fn, column, {}), fn,
                     column);
  };
  const std::string builds = "dbms.order_state.builds";
  const std::string merges = "dbms.order_state.merges";

  check("median");
  check("quantile");
  check("outside_k_sigma");
  EXPECT_EQ(CounterOf(&db, builds), 1u);
  EXPECT_EQ(CounterOf(&db, merges), 0u);

  UpdateSpec spec;
  spec.predicate = Lt(Col("ID"), Lit(int64_t{10}));
  spec.column = "X";
  spec.value = Add(Col("X"), Lit(0.25));
  STATDB_ASSERT_OK(db.Update("v", spec));
  check("median");
  check("outside_k_sigma");  // moments from the one-worker fold
  EXPECT_EQ(CounterOf(&db, builds), 1u);
  EXPECT_EQ(CounterOf(&db, merges), 1u);

  STATDB_ASSERT_OK(db.GetView("v").value()->WriteCell(3, "X", Value::Real(-7)));
  check("trimmed_mean");
  EXPECT_EQ(CounterOf(&db, builds), 2u);

  spec.predicate = nullptr;  // every row: too large to merge
  STATDB_ASSERT_OK(db.Update("v", spec));
  check("histogram");
  EXPECT_EQ(CounterOf(&db, builds), 3u);

  STATDB_ASSERT_OK(db.Rollback("v", 0));
  check("median");
  EXPECT_EQ(CounterOf(&db, builds), 4u);  // the rollback rewrote every row

  STATDB_ASSERT_OK(db.ReorganizeView("v", {"G"}));
  check("outside_k_sigma");
  check("quartiles");
  EXPECT_EQ(CounterOf(&db, builds), 4u);

  STATDB_ASSERT_OK(db.Recover());
  check("median");
  EXPECT_EQ(CounterOf(&db, builds), 5u);

  const std::string metrics = db.DumpMetrics();
  for (const char* name : {"dbms.order_state.bytes", "dbms.order_state.builds",
                           "dbms.order_state.merges",
                           "dbms.order_state.evictions"}) {
    EXPECT_NE(metrics.find(name), std::string::npos) << name;
  }
}

// A traced build shows as an order_build span, apart from the compute; a
// request the current state answers reads nothing.
TEST(OrderStateLifecycleTest, BuildIsItsOwnSpanAndACurrentStateReadsNothing) {
  Cells x;
  for (int i = 0; i < 3000; ++i) x.push_back(double(i % 113));
  Installation in = Open(x);
  CollectingTraceSink sink;
  in.db->set_trace_sink(&sink);
  STATDB_ASSERT_OK(in.db->Query("v", "median", "X").status());
  STATDB_ASSERT_OK(in.db->Query("v", "quartiles", "X").status());
  in.db->set_trace_sink(nullptr);
  std::vector<QueryTrace> traces = sink.Take();
  ASSERT_EQ(traces.size(), 2u);
  auto count = [](const QueryTrace& t, SpanKind kind) {
    size_t n = 0;
    for (size_t i = 0; i < t.size(); ++i) n += t.span(i).kind == kind;
    return n;
  };
  EXPECT_EQ(count(traces[0], SpanKind::kScan), 1u);
  EXPECT_EQ(count(traces[0], SpanKind::kOrderBuild), 1u);
  EXPECT_EQ(count(traces[0], SpanKind::kCompute), 1u);
  EXPECT_EQ(count(traces[1], SpanKind::kScan), 0u);
  EXPECT_EQ(count(traces[1], SpanKind::kOrderBuild), 0u);
  EXPECT_EQ(count(traces[1], SpanKind::kCompute), 1u);
  EXPECT_STREQ(SpanKindName(SpanKind::kOrderBuild), "order_build");
}

/// One random step of the lifecycle sequence on view v.
void RandomStep(StatisticalDbms* db, Rng* rng, uint64_t rows) {
  ConcreteView* view = db->GetView("v").value();
  const size_t x_col = view->schema().IndexOf("X").value();
  switch (rng->UniformInt(0, 9)) {
    case 0:
    case 1:
    case 2: {  // a small update: scaled, to NULL, to NaN or to -0
      UpdateSpec spec;
      const int64_t lo = rng->UniformInt(0, int64_t(rows) - 1);
      spec.predicate = And(Ge(Col("ID"), Lit(lo)),
                           Lt(Col("ID"), Lit(lo + rng->UniformInt(1, 40))));
      spec.column = "X";
      switch (rng->UniformInt(0, 3)) {
        case 0: spec.value = nullptr; break;
        case 1: spec.value = Lit(kNaN); break;
        case 2: spec.value = Lit(-0.0); break;
        default:
          spec.value = Add(Mul(Col("X"), Lit(rng->UniformDouble(0.5, 2))),
                           Lit(double(rng->UniformInt(-3, 3))));
      }
      STATDB_ASSERT_OK(db->Update("v", spec).status());
      return;
    }
    case 3: {  // every row
      UpdateSpec spec;
      spec.column = "X";
      spec.value = Mul(Col("X"), Lit(-1.0));
      STATDB_ASSERT_OK(db->Update("v", spec).status());
      return;
    }
    case 4: {
      const int64_t v = int64_t(view->version());
      STATDB_ASSERT_OK(
          db->Rollback("v", uint64_t(rng->UniformInt(std::max<int64_t>(0, v - 3),
                                                     v))));
      return;
    }
    case 5:
      STATDB_ASSERT_OK(db->RegenerateDerivedColumn("v", "Z"));
      return;
    case 6:
      STATDB_ASSERT_OK(db->ReorganizeView("v", {"G"}));
      return;
    case 7:
      STATDB_ASSERT_OK(db->FlushDeltas("v"));
      return;
    case 8: {  // a direct install the DBMS does not see
      const uint64_t row = uint64_t(rng->UniformInt(0, int64_t(rows) - 1));
      ColumnChange change;
      change.column = x_col;
      change.cells.emplace_back(
          row, std::nullopt,
          std::bit_cast<int64_t>(rng->UniformDouble(-50, 50)));
      STATDB_ASSERT_OK(view->Install({change}));
      return;
    }
    default:
      STATDB_ASSERT_OK(view->WriteCell(
          uint64_t(rng->UniformInt(0, int64_t(rows) - 1)), "X",
          Value::Real(double(rng->UniformInt(-5, 5)))));
      return;
  }
}

/// No live order state of v differs from a fresh sorted gather.
void ExpectNoDrift(StatisticalDbms* db, const std::string& where) {
  CheckReport report;
  DbAuditor auditor(db);
  STATDB_ASSERT_OK(auditor.AuditView("v", &report));
  EXPECT_FALSE(report.HasError("order-state-drift"))
      << where << "\n" << report.ToString();
}

class OrderStateSequenceTest
    : public ::testing::TestWithParam<MaintenancePolicy> {};

// After every step of a seeded random write sequence, every live order
// state equals a fresh sort of its column, and every holistic answer on
// X, on a local derived column of it and on a regenerated one equals the
// recomputation.
TEST_P(OrderStateSequenceTest, StateFollowsEveryWrite) {
  Cells x;
  Rng data_rng(11);
  for (int i = 0; i < 700; ++i) {
    x.push_back(double(data_rng.UniformInt(-200, 200)) / 4);
  }
  Installation in = Open(x, GetParam());
  StatisticalDbms* db = in.db.get();
  // Direct installs leave cached summaries behind the data; this test
  // audits only the order states.
  db->set_audit_after_update(false);
  STATDB_ASSERT_OK(db->AddDerivedColumn(
      "v", DerivedColumnDef::Local("Y", Mul(Col("X"), Lit(2.0)))));
  STATDB_ASSERT_OK(
      db->AddDerivedColumn("v", DerivedColumnDef::ZScores("Z", "X")));
  const FunctionRegistry fns = FunctionRegistry::WithBuiltins();
  QueryOptions no_cache;
  no_cache.cache_result = false;
  Rng rng(uint64_t(GetParam()) * 101 + 5);
  for (int step = 0; step < 60; ++step) {
    RandomStep(db, &rng, x.size());
    const std::string where = "step " + std::to_string(step);
    ExpectNoDrift(db, where + " before reads");
    for (const char* attr : {"X", "Y", "Z"}) {
      const std::vector<double> column = Gather(db, attr);
      std::vector<QueryRequest> requests = HolisticRequests(attr);
      // Three of them a step, in turn.
      for (size_t k = 0; k < 3; ++k) {
        const QueryRequest& r =
            requests[(size_t(step) * 3 + k) % requests.size()];
        auto got = db->Query("v", r.function, attr, r.params, no_cache);
        Result<SummaryResult> result =
            got.ok() ? Result<SummaryResult>(got->result)
                     : Result<SummaryResult>(got.status());
        ExpectSameAnswer(r.function, result,
                         fns.Compute(r.function, column, r.params),
                         where + " " + attr + " " + r.function + " " +
                             r.params.Encode(),
                         column);
      }
      // A cached request, which may arm a maintainer from the scan. Its
      // key is none of the above: direct installs leave it behind.
      (void)db->Query("v", "quantile", attr, FunctionParams().Set("p", 0.61));
    }
    ExpectNoDrift(db, where + " after reads");
  }
  EXPECT_GT(CounterOf(db, "dbms.order_state.merges"), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, OrderStateSequenceTest,
    ::testing::Values(MaintenancePolicy::kInvalidate,
                      MaintenancePolicy::kIncremental,
                      MaintenancePolicy::kEager),
    [](const ::testing::TestParamInfo<MaintenancePolicy>& param) {
      switch (param.param) {
        case MaintenancePolicy::kInvalidate: return std::string("invalidate");
        case MaintenancePolicy::kIncremental: return std::string("incremental");
        case MaintenancePolicy::kEager: return std::string("eager");
      }
      return std::string("unknown");
    });

// The state itself: a merge of queued changes equals a fresh build, bit
// for bit, with -0 before +0 and NaN only counted.
TEST(OrderStateTest, MergeEqualsAFreshBuild) {
  Rng rng(3);
  std::vector<double> column;
  for (int i = 0; i < 400; ++i) {
    column.push_back(i % 50 == 0 ? kNaN
                                 : i % 7 == 0 ? (i % 2 ? -0.0 : 0.0)
                                              : double(rng.UniformInt(-9, 9)));
  }
  OrderState state = OrderState::Build(column);
  for (int round = 0; round < 20; ++round) {
    for (int c = 0; c < 10 && state.CanQueue(1); ++c) {
      const size_t row = size_t(rng.UniformInt(0, int64_t(column.size()) - 1));
      const double fresh = rng.UniformInt(0, 9) == 0
                               ? kNaN
                               : double(rng.UniformInt(-9, 9)) * 0.5;
      state.Queue(column[row], fresh);
      column[row] = fresh;
    }
    EXPECT_FALSE(state.moments().has_value());
    ASSERT_TRUE(state.Merge());
    const OrderState want = OrderState::Build(column);
    EXPECT_EQ(state.nan_count(), want.nan_count());
    ASSERT_EQ(state.sorted().size(), want.sorted().size());
    for (size_t i = 0; i < want.sorted().size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(state.sorted()[i]),
                std::bit_cast<uint64_t>(want.sorted()[i]))
          << "round " << round << " rank " << i;
    }
  }
  // A value that was never there cannot leave.
  state.Queue(1e300, 1.0);
  EXPECT_FALSE(state.Merge());
}

TEST(OrderStateTest, SortByBitsOrdersNegativeZeroFirst) {
  std::vector<double> v = {3, -0.0, 0.0, -1, -0.0, 2, -1e300, 1e300};
  SortByBits(&v);
  const std::vector<double> want = {-1e300, -1, -0.0, -0.0, 0.0, 2, 3, 1e300};
  ASSERT_EQ(v.size(), want.size());
  for (size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(v[i]), std::bit_cast<uint64_t>(want[i]))
        << i;
  }
}

}  // namespace
}  // namespace statdb
