#include "loop.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>

#include <sys/resource.h>

#include "check/check.h"
#include "fault/wal.h"
#include "relational/datagen.h"
#include "session/session.h"

namespace loopbench {

using namespace statdb;

double NowMs() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // kB -> MiB
}

double Samples::Sum() const {
  double s = 0;
  for (double x : v_) s += x;
  return s;
}

double Samples::Quantile(double q) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  double pos = q * double(s.size() - 1);
  size_t lo = size_t(pos);
  size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (s[hi] - s[lo]) * (pos - double(lo));
}

int32_t SpanBuffer::Open(uint64_t op, int32_t parent, std::string name) {
  double now = NowMs();
  spans_.push_back(Span{op, parent, std::move(name), now, now});
  return int32_t(spans_.size() - 1);
}

void SpanBuffer::AddClosed(uint64_t op, int32_t parent, std::string name,
                           double start_ms, double end_ms) {
  spans_.push_back(Span{op, parent, std::move(name), start_ms, end_ms});
}

uint64_t NextOpId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

namespace {

struct Attachment {
  SpanBuffer* buf = nullptr;
  uint64_t op = 0;
  int32_t parent = -1;
};
thread_local Attachment tls_attach;

}  // namespace

SpanSink::Attach::Attach(SpanBuffer* buf, uint64_t op, int32_t parent) {
  tls_attach = Attachment{buf, op, parent};
}

SpanSink::Attach::~Attach() { tls_attach = Attachment{}; }

void SpanSink::OnQueryTrace(const QueryTrace& trace) {
  const Attachment& a = tls_attach;
  if (a.buf == nullptr) return;
  // The trace epoch is taken inside the public call, after the bench
  // span opened; anchor the phases at the span start.
  const double base = a.buf->spans()[a.parent].start_ms;
  for (size_t i = 0; i < trace.size(); ++i) {
    const TraceSpan& s = trace.span(i);
    if (s.kind == SpanKind::kScanChunk) continue;
    a.buf->AddClosed(a.op, a.parent,
                     std::string("dbms.") + SpanKindName(s.kind),
                     base + s.start_ms, base + s.start_ms + s.wall_ms);
  }
}

Counters Counters::operator-(const Counters& o) const {
  Counters d = *this;
  d.pool_hits -= o.pool_hits;
  d.pool_misses -= o.pool_misses;
  d.disk_reads -= o.disk_reads;
  d.disk_writes -= o.disk_writes;
  d.summary_lookups -= o.summary_lookups;
  d.summary_hits -= o.summary_hits;
  d.applies -= o.applies;
  d.rebuilds -= o.rebuilds;
  d.cells_changed -= o.cells_changed;
  d.scan_compressed -= o.scan_compressed;
  d.scan_materialized -= o.scan_materialized;
  d.delta_flushed -= o.delta_flushed;
  d.wal_records -= o.wal_records;
  d.wal_bytes -= o.wal_bytes;
  d.captures -= o.captures;
  return d;
}

Counters& Counters::operator+=(const Counters& o) {
  pool_hits += o.pool_hits;
  pool_misses += o.pool_misses;
  disk_reads += o.disk_reads;
  disk_writes += o.disk_writes;
  summary_lookups += o.summary_lookups;
  summary_hits += o.summary_hits;
  applies += o.applies;
  rebuilds += o.rebuilds;
  cells_changed += o.cells_changed;
  scan_compressed += o.scan_compressed;
  scan_materialized += o.scan_materialized;
  delta_flushed += o.delta_flushed;
  wal_records += o.wal_records;
  wal_bytes += o.wal_bytes;
  captures += o.captures;
  return *this;
}

Counters ReadCounters(StatisticalDbms* dbms, const std::string& view) {
  Counters c;
  StorageManager* sm = dbms->storage();
  if (Result<BufferPool*> pool = sm->GetPool(dbms->disk_device_name());
      pool.ok()) {
    BufferPoolStats s = pool.value()->stats();
    c.pool_hits = double(s.hits);
    c.pool_misses = double(s.misses);
  }
  if (Result<SimulatedDevice*> dev = sm->GetDevice(dbms->disk_device_name());
      dev.ok()) {
    c.disk_reads = double(dev.value()->stats().block_reads);
    c.disk_writes = double(dev.value()->stats().block_writes);
  }
  if (Result<SummaryDatabase*> sdb = dbms->GetSummaryDb(view); sdb.ok()) {
    SummaryDbStats s = sdb.value()->stats();
    c.summary_lookups = double(s.lookups);
    c.summary_hits = double(s.hits);
  }
  if (Result<const ViewTrafficStats*> t = dbms->GetTrafficStats(view);
      t.ok()) {
    c.applies = double(t.value()->maintainer_applies);
    c.rebuilds = double(t.value()->maintainer_rebuilds);
    c.cells_changed = double(t.value()->cells_changed);
  }
  MetricsRegistry& m = dbms->metrics();
  auto count = [&m](const char* name) {
    return double(m.GetCounter(name)->Get());
  };
  c.scan_compressed = count("dbms.scan.compressed_domain");
  c.scan_materialized = count("dbms.scan.materialized");
  c.delta_flushed = count("dbms.delta.flushed");
  if (RedoLog* wal = dbms->redo_log(); wal != nullptr) {
    WalStats w = wal->stats();
    c.wal_records = double(w.records_appended);
    c.wal_bytes = double(w.bytes_appended);
  }
  if (session::SessionManager* mgr = dbms->sessions(); mgr != nullptr) {
    c.captures = double(mgr->stats().captures);
  }
  return c;
}

void Report::Fail(const std::string& what) {
  correct = false;
  errors.push_back(what);
}

std::unique_ptr<StorageManager> MakeInstallation(size_t disk_pool_pages,
                                                 bool with_wal) {
  auto sm = std::make_unique<StorageManager>();
  auto check = [](const Status& s) {
    if (!s.ok()) {
      std::fprintf(stderr, "installation: %s\n", s.ToString().c_str());
      std::exit(2);
    }
  };
  check(sm->AddDevice("tape", DeviceCostModel::Tape(), 1024).status());
  check(sm->AddDevice("disk", DeviceCostModel::Disk(), disk_pool_pages)
            .status());
  if (with_wal) {
    check(sm->AddDevice("wal", DeviceCostModel::Disk(), 8).status());
  }
  return sm;
}

Table MakeCensus(uint64_t rows, uint64_t seed, bool sorted) {
  CensusOptions opts;
  opts.rows = rows;
  opts.sorted_by_categories = sorted;
  Rng rng(seed);
  Result<Table> t = GenerateCensusMicrodata(opts, &rng);
  if (!t.ok()) {
    std::fprintf(stderr, "census: %s\n", t.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(t).value();
}

double StoredBytesPerUserByte(StorageManager* sm, uint64_t rows) {
  uint64_t pages = 0;
  for (const char* dev : {"tape", "disk"}) {
    if (Result<SimulatedDevice*> d = sm->GetDevice(dev); d.ok()) {
      pages += d.value()->page_count();
    }
  }
  return double(pages * kPageSize) / double(rows * 9 * 8);
}

uint64_t ViewPages(StatisticalDbms* dbms, const std::string& view,
                   const std::vector<std::string>& columns) {
  Result<ConcreteView*> v = dbms->GetView(view);
  if (!v.ok()) return 0;
  const Schema& schema = v.value()->schema();
  std::vector<TransposedTable::ColumnState> cols =
      v.value()->ExportColumns();
  uint64_t pages = 0;
  for (const std::string& c : columns) {
    Result<size_t> idx = schema.IndexOf(c);
    if (idx.ok() && idx.value() < cols.size()) {
      pages += cols[idx.value()].pages.size();
    }
  }
  return pages;
}

bool SameAnswer(const SummaryResult& got, const SummaryResult& want) {
  // Parallel and compressed-domain paths merge partial states, which
  // agree with the serial recompute to rounding (DESIGN.md §9/§14).
  return SummaryResultsApproxEqual(got, want, 1e-9, 1e-9);
}

double Round6(double x) { return std::round(x * 1e6) / 1e6; }

std::vector<double> Numeric(const std::vector<Value>& values) {
  std::vector<double> out;
  out.reserve(values.size());
  for (const Value& v : values) {
    if (v.is_null()) continue;
    Result<double> d = v.ToDouble();
    if (d.ok()) out.push_back(d.value());
  }
  return out;
}

void LayerTally::AddCall(const Counters& d, bool is_query, bool is_update) {
  op_delta += d;
  ++ops;
  if (d.delta_flushed > 0) ++flushing_ops;
  if (is_query) {
    query_delta += d;
    ++queries;
  }
  if (is_update) {
    update_delta += d;
    ++updates;
  }
  for (double r = 0; r < d.wal_records; ++r) {
    commit_bytes.push_back(d.wal_bytes / d.wal_records);
  }
}

namespace {

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double MeanOf(const std::vector<double>& v, size_t begin, size_t end) {
  double s = 0;
  for (size_t i = begin; i < end; ++i) s += v[i];
  return Ratio(s, double(end - begin));
}

}  // namespace

void LayerTally::EndEpisode() {
  const size_t n = commit_bytes.size();
  const size_t decile = n / 10;
  if (decile > 0) {
    commit_growth.Add(Ratio(MeanOf(commit_bytes, n - decile, n),
                            MeanOf(commit_bytes, 0, decile)));
  }
  commit_bytes.clear();
}

void LayerTally::Emit(Report* r, const TraceSummary& spans,
                      double summary_entries) const {
  const Counters& q = query_delta;
  r->Set("storage.pool_hit_rate",
         Ratio(q.pool_hits, q.pool_hits + q.pool_misses), "ratio");
  r->Set("storage.pool_misses_per_query", Ratio(q.pool_misses, double(queries)),
         "count");
  r->Set("storage.device_reads_per_query", Ratio(q.disk_reads, double(queries)),
         "count");
  r->Set("storage.column_read_ms", column_read_ms.Median(), "ms");
  r->Set("storage.disk_writes_per_update",
         Ratio(update_delta.disk_writes, double(updates)), "count");
  r->Set("relational.predicate_eval_ms", predicate_eval_ms.Median(), "ms");
  r->Set("exec.compressed_share",
         Ratio(op_delta.scan_compressed,
               op_delta.scan_compressed + op_delta.scan_materialized),
         "ratio");
  r->Set("exec.parallel_query_ms", parallel_ms.Median(), "ms");
  r->Set("stats.compute_ms", compute_ms.Median(), "ms");
  r->Set("summary.hit_rate", Ratio(q.summary_hits, q.summary_lookups),
         "ratio");
  r->Set("summary.entries", summary_entries, "count");
  r->Set("summary.probe_ms", probe_ms.Median(), "ms");
  r->Set("rules.maintainer_applies_per_update",
         Ratio(op_delta.applies, double(updates)), "count");
  r->Set("rules.maintainer_rebuilds_per_update",
         Ratio(op_delta.rebuilds, double(updates)), "count");
  r->Set("rules.regenerate_ms", regenerate_ms.Median(), "ms");
  r->Set("rules.rollback_ms", rollback_ms.Median(), "ms");
  r->Set("delta.pending_peak", pending_peak, "count");
  r->Set("delta.flushes_per_update",
         Ratio(double(flushing_ops), double(updates)), "count");
  r->Set("delta.flush_ms", flush_ms.Median(), "ms");
  r->Set("wal.bytes_per_commit",
         Ratio(op_delta.wal_bytes, op_delta.wal_records), "B");
  r->Set("wal.commits_per_op", Ratio(op_delta.wal_records, double(ops)),
         "count");
  r->Set("wal.log_bytes_per_cell",
         Ratio(op_delta.wal_bytes, op_delta.cells_changed), "B");
  r->Set("wal.commit_bytes_growth", commit_growth.Median(), "ratio");
  r->Set("session.open_ms", open_ms.Median(), "ms");
  r->Set("session.close_ms", close_ms.Median(), "ms");
  r->Set("session.timeline_hit_rate", Ratio(timeline_hits, session_queries),
         "ratio");
  r->Set("session.snapshot_read_share",
         Ratio(snapshot_reads, snapshot_reads + live_reads), "ratio");
  r->Set("session.captures_per_update",
         Ratio(op_delta.captures, double(updates)), "count");
  const double traced =
      Ratio(traced_call_ms.Sum(), double(traced_call_ms.size()));
  const double untraced =
      Ratio(untraced_call_ms.Sum(), double(untraced_call_ms.size()));
  r->Set("obs.trace_overhead_pct",
         untraced == 0 ? 0 : 100.0 * (traced / untraced - 1.0), "%");
  r->Set("obs.unattributed_pct",
         100.0 * Ratio(spans.call_wall_ms - spans.call_attributed_ms,
                       spans.call_wall_ms),
         "%");
}

TraceSummary SummarizeSpans(const std::vector<const SpanBuffer*>& buffers) {
  TraceSummary out;
  for (const SpanBuffer* buf : buffers) {
    const std::vector<Span>& spans = buf->spans();
    std::vector<double> child_ms(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ms[s.parent] += s.end_ms - s.start_ms;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      double wall = s.end_ms - s.start_ms;
      auto& [ms, n] = out.self_ms[s.name];
      ms += wall - child_ms[i];
      ++n;
      if (s.name.rfind("call.", 0) == 0) {
        out.call_wall_ms += wall;
        out.call_attributed_ms += child_ms[i];
      }
    }
  }
  return out;
}

void WriteSpanFile(const std::string& path,
                   const std::vector<const SpanBuffer*>& buffers,
                   const TraceSummary& summary) {
  std::ofstream out(path);
  char line[512];
  for (size_t b = 0; b < buffers.size(); ++b) {
    const std::vector<Span>& spans = buffers[b]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::snprintf(line, sizeof(line),
                    "{\"thread\": %zu, \"idx\": %zu, \"op\": %llu, "
                    "\"parent\": %d, \"name\": \"%s\", \"start_ms\": %.6f, "
                    "\"end_ms\": %.6f}\n",
                    b, i, (unsigned long long)s.op, s.parent, s.name.c_str(),
                    s.start_ms, s.end_ms);
      out << line;
    }
  }
  for (const auto& [name, v] : summary.self_ms) {
    std::snprintf(line, sizeof(line),
                  "{\"self\": \"%s\", \"ms\": %.6f, \"count\": %llu}\n",
                  name.c_str(), v.first, (unsigned long long)v.second);
    out << line;
  }
}

}  // namespace loopbench
