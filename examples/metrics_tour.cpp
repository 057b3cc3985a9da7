// Observability tour: runs a small analyst session — queries answered by
// computation, by the Summary Database, by inference, and served stale —
// then prints one observability document to stdout.
//
// stdout carries ONLY the JSON (CI pipes it into a schema check); the
// human narration, including one `explain`-style trace rendering, goes
// to stderr. The optional argv[1] selects which document:
//   metrics     (default)  DumpMetrics()             — the registry export
//   flight                 flight().DumpJson()       — the black box: event
//                          ring + slow traces with their joined events
//   timeseries             timeseries().DumpJson()   — deltas + rates
//   workload               workload_profiler().ReportJson() — §4.3 heatmaps
//   top                    ReportText() on stderr, workload JSON on
//                          stdout (so the pipe check still works)
//   slo                    slo().DumpJson()          — per-class targets
//   chrometrace            DumpChromeTrace()         — chrome://tracing JSON

#include <cstdio>
#include <cstring>
#include <iostream>

#include "core/dbms.h"
#include "relational/datagen.h"
#include "storage/storage_manager.h"

using namespace statdb;

namespace {

Status Run(const char* mode) {
  StorageManager storage;
  STATDB_RETURN_IF_ERROR(
      storage.AddDevice("tape", DeviceCostModel::Tape(), 1024).status());
  STATDB_RETURN_IF_ERROR(
      storage.AddDevice("disk", DeviceCostModel::Disk(), 16384).status());
  StatisticalDbms dbms(&storage);
  // Snapshot after every mutation: the tour has exactly one update, so
  // the timeseries ends with a baseline point and one delta.
  dbms.EnableTimeseries(1);
  // Slow-query capture at threshold 0: every operation qualifies, so the
  // flight/chrometrace exports have slow traces regardless of how fast the
  // tour machine is.
  dbms.flight().slow_log().set_threshold_ms(0.0);
  dbms.flight().slow_log().set_enabled(true);

  CensusOptions gen;
  gen.rows = 20000;
  Rng rng(7);
  STATDB_ASSIGN_OR_RETURN(Table data, GenerateCensusMicrodata(gen, &rng));
  STATDB_RETURN_IF_ERROR(dbms.LoadRawDataSet("census", data));
  ViewDefinition def;
  def.source = "census";
  STATDB_RETURN_IF_ERROR(
      dbms.CreateView("v", def, MaintenancePolicy::kIncremental).status());

  // Traced session: every phase of each query lands in the sink.
  CollectingTraceSink sink;
  dbms.set_trace_sink(&sink);

  // 1. Cold battery: computed + cached + maintainers armed.
  STATDB_RETURN_IF_ERROR(
      dbms.Query("v", "mean", "INCOME").status());
  STATDB_RETURN_IF_ERROR(
      dbms.Query("v", "median", "INCOME").status());
  STATDB_RETURN_IF_ERROR(
      dbms.Query("v", "variance", "INCOME").status());
  // 2. Warm repeats: summary-cache hits.
  STATDB_RETURN_IF_ERROR(dbms.Query("v", "mean", "INCOME").status());
  STATDB_RETURN_IF_ERROR(dbms.Query("v", "median", "INCOME").status());
  // 3. Inference: stddev from the cached variance, no data touched.
  QueryOptions infer;
  infer.allow_inference = true;
  STATDB_RETURN_IF_ERROR(
      dbms.Query("v", "stddev", "INCOME", {}, infer).status());
  // 4. Parallel batch over two attributes in one scan each.
  std::vector<QueryRequest> batch = {{"mean", "AGE", {}},
                                     {"max", "AGE", {}},
                                     {"mean", "HOURS_WORKED", {}},
                                     {"quantile", "HOURS_WORKED",
                                      FunctionParams().Set("p", 0.9)}};
  STATDB_RETURN_IF_ERROR(dbms.QueryMany("v", batch, {}, 4).status());
  // 5. Parallel bivariate.
  STATDB_RETURN_IF_ERROR(
      dbms.QueryBivariateParallel("v", "correlation", "AGE", "INCOME", {}, 4)
          .status());
  // 6. An update, then a stale-tolerant query: served_stale economics.
  UpdateSpec spec;
  spec.column = "INCOME";
  spec.value = Mul(Col("INCOME"), Lit(1.02));
  spec.predicate = Lt(Col("AGE"), Lit(30.0));
  spec.description = "cost-of-living adjustment";
  STATDB_RETURN_IF_ERROR(dbms.Update("v", spec).status());
  QueryOptions approx;
  approx.allow_stale = true;
  STATDB_RETURN_IF_ERROR(
      dbms.Query("v", "median", "INCOME", {}, approx).status());

  dbms.set_trace_sink(nullptr);
  std::vector<QueryTrace> traces = sink.Take();
  std::cerr << "ran " << traces.size()
            << " traced queries; first computed trace:\n";
  for (const QueryTrace& t : traces) {
    if (t.outcome() == TraceOutcome::kComputed) {
      std::cerr << t.ToText();
      break;
    }
  }

  // stdout: the one-document export (validated by CI's schema check).
  if (std::strcmp(mode, "flight") == 0) {
    std::cerr << "\nflight().DumpJson() follows on stdout.\n";
    std::cout << dbms.flight().DumpJson("tour") << "\n";
  } else if (std::strcmp(mode, "timeseries") == 0) {
    std::cerr << "\ntimeseries().DumpJson() follows on stdout.\n";
    std::cerr << dbms.ExposeText();  // Prometheus rendering, for humans
    std::cout << dbms.timeseries().DumpJson() << "\n";
  } else if (std::strcmp(mode, "workload") == 0) {
    std::cerr << "\nworkload_profiler().ReportJson() follows on stdout.\n";
    std::cout << dbms.workload_profiler().ReportJson() << "\n";
  } else if (std::strcmp(mode, "top") == 0) {
    std::cerr << "\n" << dbms.workload_profiler().ReportText();
    std::cout << dbms.workload_profiler().ReportJson() << "\n";
  } else if (std::strcmp(mode, "slo") == 0) {
    std::cerr << "\nslo().DumpJson() follows on stdout.\n";
    std::cout << dbms.slo().DumpJson() << "\n";
  } else if (std::strcmp(mode, "chrometrace") == 0) {
    std::cerr << "\nDumpChromeTrace() follows on stdout.\n";
    std::cout << dbms.DumpChromeTrace() << "\n";
  } else {
    std::cerr << "\nDumpMetrics() JSON follows on stdout.\n";
    std::cout << dbms.DumpMetrics() << "\n";
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  const char* mode = argc > 1 ? argv[1] : "metrics";
  Status s = Run(mode);
  if (!s.ok()) {
    std::cerr << "metrics_tour failed: " << s.ToString() << "\n";
    return 1;
  }
  return 0;
}
