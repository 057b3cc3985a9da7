// Causal-tracing overhead on the hot query path (DESIGN.md §10).
//
// PR 10 threads a TraceContext through every entry point: a mint (one
// relaxed fetch_add) plus a thread_local install/restore per operation,
// and a trace stamp resolved only inside the flight recorder's slow
// path. The production default is tracing machinery present but every
// consumer off (flight disabled, no sink, slow log disabled) — this
// bench prices exactly that default against a hypothetical tracing-free
// build, then shows the fully-lit configuration for contrast.
//
// Three phases, interleaved round-robin so clock drift spreads evenly:
//   off    flight disabled, no sink, slow log off — the gated default.
//          The minting/install cost is *in* this phase; there is no way
//          to run the binary without it, which is the point: the gate
//          asserts the whole leg is noise.
//   full   flight enabled + slow log capturing at threshold 0 (every
//          operation retained; its events are joined on export)
//   export the full configuration plus a Chrome-trace export per rep
//          (prices the offline renderer, not the hot path)
//
// The headline is overhead_ctx_pct: the context machinery's directly
// measured cost (a mint + thread_local install/restore microbench),
// priced as a percentage of one tracing-off query's wall time. It is
// checked as an ABSOLUTE cap (<= 2%) by compare_bench.py — phase-vs-
// phase wall comparison across runs is noise-dominated (the flight
// bench's "on" phase swings ~20% on shared machines), but "the context
// leg is a vanishing fraction of any real query" is a claim each run
// can prove about itself, no baseline required. Per-phase simulated I/O
// must stay identical: observation must not change the physical plan.

#include <cstdlib>
#include <vector>

#include "bench/bench_util.h"
#include "causal/trace_context.h"
#include "core/dbms.h"

using namespace statdb;
using namespace statdb::bench;

namespace {

constexpr uint64_t kDefaultRows = 500'000;
constexpr int kReps = 10;
constexpr size_t kWorkers = 4;
const char* kAttr = "INCOME";
const std::vector<std::string> kBattery = {
    "count", "sum",  "mean", "variance", "stddev",   "min",
    "max",   "range", "mode", "distinct", "histogram"};

double SimulatedIoMs(StorageManager* sm) {
  SimulatedDevice* disk = Unwrap(sm->GetDevice("disk"));
  return double(disk->stats().simulated_ms);
}

struct Phase {
  const char* name;
  bool flight;
  bool slow_log;
  bool export_trace;
  double total_ms = 0;
  double min_ms = 0;
  double io_ms = 0;
};

}  // namespace

int main(int argc, char** argv) {
  uint64_t rows = kDefaultRows;
  if (argc > 1) rows = std::strtoull(argv[1], nullptr, 10);
  Header("causal_overhead",
         "Price of causal tracing on the QueryMany battery: everything "
         "off (the production default) vs slow-log capture vs capture "
         "plus Chrome-trace export.");
  std::printf("rows: %llu, reps/phase: %d, workers: %zu\n",
              (unsigned long long)rows, kReps, kWorkers);

  auto sm = MakeInstallation(/*tape_pool=*/1024, /*disk_pool=*/32768);
  StatisticalDbms dbms(sm.get());
  CheckOk(dbms.LoadRawDataSet("census", MakeCensus(rows)));
  ViewDefinition def;
  def.source = "census";
  Unwrap(dbms.CreateView("v", def, MaintenancePolicy::kInvalidate));

  QueryOptions no_cache;
  no_cache.cache_result = false;

  std::vector<QueryRequest> battery;
  for (const std::string& fn : kBattery) battery.push_back({fn, kAttr, {}});

  // Warm the pool once so every phase scans resident pages.
  Unwrap(dbms.QueryMany("v", battery, no_cache, kWorkers));

  Phase phases[] = {
      {"off", false, false, false},
      {"full", true, true, false},
      {"export", true, true, true},
  };

  dbms.flight().slow_log().set_threshold_ms(0.0);

  for (int rep = 0; rep < kReps; ++rep) {
    for (Phase& p : phases) {
      dbms.flight().set_enabled(p.flight);
      dbms.flight().slow_log().set_enabled(p.slow_log);
      double io_before = SimulatedIoMs(sm.get());
      WallTimer t;
      Unwrap(dbms.QueryMany("v", battery, no_cache, kWorkers));
      if (p.export_trace) {
        // The renderer reads snapshots only; DoNotOptimize-by-use via
        // the size (the string is dropped).
        std::string doc = dbms.DumpChromeTrace();
        if (doc.empty()) std::abort();
      }
      double ms = t.ElapsedMs();
      p.total_ms += ms;
      p.min_ms = (rep == 0 || ms < p.min_ms) ? ms : p.min_ms;
      p.io_ms += SimulatedIoMs(sm.get()) - io_before;
    }
  }
  dbms.flight().set_enabled(true);
  dbms.flight().slow_log().set_enabled(false);

  const double off_ms = phases[0].min_ms;
  std::printf("\n%10s %12s %12s %14s %12s\n", "phase", "min ms",
              "total ms", "sim io ms", "overhead");
  std::vector<std::string> phase_rows;
  for (const Phase& p : phases) {
    double overhead_pct = off_ms > 0 ? (p.min_ms / off_ms - 1.0) * 100.0
                                     : 0.0;
    std::printf("%10s %12.2f %12.2f %14.2f %11.2f%%\n", p.name, p.min_ms,
                p.total_ms, p.io_ms, overhead_pct);
    phase_rows.push_back(JsonObject()
                             .Str("phase", p.name)
                             .Num("wall_ms", p.min_ms)
                             .Num("total_ms", p.total_ms)
                             .Num("simulated_io_ms", p.io_ms)
                             .Num("overhead_pct", overhead_pct)
                             .Build());
  }

  // The gated number. Every entry point pays exactly one mint plus one
  // thread_local install/restore whether or not anything consumes the
  // context — the cost the off phase cannot shed. Measure it head-on,
  // then price it against one query's tracing-off wall time (the
  // battery floor divided by its size; conservative, since the whole
  // battery shares a single mint). compare_bench.py caps this at an
  // absolute 2%.
  constexpr int kCtxIters = 1'000'000;
  WallTimer ctx_t;
  for (int i = 0; i < kCtxIters; ++i) {
    causal::ScopedTraceContext scope(causal::Mint());
    if (!scope.ctx().valid()) std::abort();  // also defeats dead-code elim
  }
  const double ctx_ns = ctx_t.ElapsedMs() * 1e6 / kCtxIters;
  const double off_ns_per_query =
      off_ms * 1e6 / double(kBattery.size());
  const double overhead_ctx_pct =
      off_ns_per_query > 0 ? ctx_ns / off_ns_per_query * 100.0 : 0.0;

  const double off_ms_per_100k =
      rows > 0 ? off_ms / (double(rows) / 100'000.0) : 0.0;
  std::printf("\noff-phase floor: %.2f ms (%.3f ms per 100k rows)\n",
              off_ms, off_ms_per_100k);
  std::printf("context machinery: %.1f ns per mint+install "
              "(%.4f%% of one tracing-off query)\n",
              ctx_ns, overhead_ctx_pct);
  std::printf("slow log captured %llu entries (%llu dropped)\n",
              (unsigned long long)dbms.flight().slow_log().captured(),
              (unsigned long long)dbms.flight().slow_log().dropped());

  WriteBenchJson(
      "causal_overhead",
      JsonObject()
          .Str("bench", "causal_overhead")
          .Int("rows", rows)
          .Int("reps", kReps)
          .Int("workers", kWorkers)
          .Int("battery_size", kBattery.size())
          .Num("off_ms", phases[0].min_ms)
          .Num("full_ms", phases[1].min_ms)
          .Num("export_ms", phases[2].min_ms)
          .Num("off_ms_per_100k_rows", off_ms_per_100k)
          .Num("ctx_ns_per_op", ctx_ns)
          .Num("overhead_ctx_pct", overhead_ctx_pct)
          .Num("overhead_full_pct",
               off_ms > 0 ? (phases[1].min_ms / off_ms - 1.0) * 100.0 : 0)
          .Num("overhead_export_pct",
               off_ms > 0 ? (phases[2].min_ms / off_ms - 1.0) * 100.0 : 0)
          .Num("simulated_io_ms", phases[0].io_ms)
          .Int("slow_entries_captured", dbms.flight().slow_log().captured())
          .Int("slow_entries_dropped", dbms.flight().slow_log().dropped())
          .Raw("phases", JsonArray(phase_rows))
          .Build());
  return 0;
}
