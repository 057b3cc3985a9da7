#ifndef STATDB_LOOPBENCH_LOOP_H_
#define STATDB_LOOPBENCH_LOOP_H_

// Shared plumbing of the analysis-loop benchmark: run options, latency
// samples, the in-memory span recorder of the traced run, the counter
// snapshots read from the layers' public stats, and the result a
// workload hands back to main(). Everything here observes the program
// from outside, through its public API.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/dbms.h"
#include "obs/trace.h"
#include "relational/table.h"
#include "storage/storage_manager.h"

namespace loopbench {

using statdb::Rng;
using statdb::StatisticalDbms;
using statdb::StorageManager;
using statdb::Table;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory the traced run writes its span file into.
  std::string out_dir = ".";
};

/// Monotonic milliseconds since the first call in this process.
double NowMs();

/// Peak resident set size of this process (ru_maxrss), in MiB.
double PeakRssMb();

/// Latency samples of one operation class.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  void Append(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
  }
  size_t size() const { return v_.size(); }
  double Sum() const;
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

 private:
  std::vector<double> v_;
};

/// One span of the traced run: a bench-side timing around a call into a
/// layer, or a phase span copied in from the DBMS's own QueryTrace. All
/// spans of one operation share `op`; `parent` indexes the same buffer.
struct Span {
  uint64_t op = 0;
  int32_t parent = -1;
  std::string name;
  double start_ms = 0;
  double end_ms = 0;
};

/// Per-thread span buffer, kept in memory until the run ends. A null
/// SpanBuffer* means tracing is off; every helper below accepts it.
class SpanBuffer {
 public:
  int32_t Open(uint64_t op, int32_t parent, std::string name);
  void Close(int32_t idx) { spans_[idx].end_ms = NowMs(); }
  void AddClosed(uint64_t op, int32_t parent, std::string name,
                 double start_ms, double end_ms);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Next operation id (process-wide, thread-safe).
uint64_t NextOpId();

/// RAII span; inert when `buf` is null.
class SpanScope {
 public:
  SpanScope(SpanBuffer* buf, uint64_t op, int32_t parent, std::string name)
      : buf_(buf),
        idx_(buf == nullptr ? -1 : buf->Open(op, parent, std::move(name))) {}
  ~SpanScope() {
    if (buf_ != nullptr) buf_->Close(idx_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int32_t index() const { return idx_; }

 private:
  SpanBuffer* buf_;
  int32_t idx_;
};

/// TraceSink that files each QueryTrace the DBMS emits as child spans of
/// the bench span that is current on the emitting thread ("dbms.<phase>",
/// parallel scan chunks left out because they overlap).
class SpanSink : public statdb::TraceSink {
 public:
  /// Makes (`buf`, `op`, `parent`) the attachment point of traces
  /// emitted on this thread until the returned guard ends.
  class Attach {
   public:
    Attach(SpanBuffer* buf, uint64_t op, int32_t parent);
    ~Attach();
    Attach(const Attach&) = delete;
    Attach& operator=(const Attach&) = delete;
  };
  void OnQueryTrace(const statdb::QueryTrace& trace) override;
};

/// Counters read from the layers' public stats at one instant.
struct Counters {
  double pool_hits = 0, pool_misses = 0;
  double disk_reads = 0, disk_writes = 0;
  double summary_lookups = 0, summary_hits = 0;
  double applies = 0, rebuilds = 0, cells_changed = 0;
  double scan_compressed = 0, scan_materialized = 0;
  double delta_flushed = 0;
  double wal_records = 0, wal_bytes = 0;
  double captures = 0;

  Counters operator-(const Counters& o) const;
  Counters& operator+=(const Counters& o);
};

/// Snapshot of the DBMS's counters for view `view`. Reads device
/// counters, so call it only where no other thread does I/O.
Counters ReadCounters(StatisticalDbms* dbms, const std::string& view);

/// What a workload hands back: the outcome, every metric it measured
/// (name -> value, unit), and human-readable lines for stdout.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, std::pair<double, std::string>> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Records a failed correctness or regime check; the run then fails.
  void Fail(const std::string& what);
};

/// Median of `runs` repetitions of `setup` (seconds each); the last
/// repetition's state is what the caller keeps.
template <typename F>
double MedianSetupSeconds(int runs, F&& setup) {
  Samples s;
  for (int i = 0; i < runs; ++i) {
    double t0 = NowMs();
    setup();
    s.Add((NowMs() - t0) / 1000.0);
  }
  return s.Median();
}

/// The tape + disk (+ optional WAL) installation of one run.
std::unique_ptr<StorageManager> MakeInstallation(size_t disk_pool_pages,
                                                 bool with_wal);

/// Census microdata drawn from `seed` (input generation is never timed).
Table MakeCensus(uint64_t rows, uint64_t seed, bool sorted);

/// Bytes of the pages the tape and disk devices hold now, divided by the
/// raw census bytes (rows x 9 attributes x 8 bytes). Taken at the end
/// of set-up: what the timed phase adds (Summary DB entries, WAL) grows
/// with the operations a run completes, so it would penalize a faster
/// program; the per-layer metrics report it.
double StoredBytesPerUserByte(StorageManager* sm, uint64_t rows);

/// Pages of `columns` in the view's column files.
uint64_t ViewPages(StatisticalDbms* dbms, const std::string& view,
                   const std::vector<std::string>& columns);

/// True when `got` equals a direct recompute `want` (FP-tolerant for
/// merged partials, exact otherwise per the check oracle's rule).
bool SameAnswer(const statdb::SummaryResult& got,
                const statdb::SummaryResult& want);

/// `x` rounded to 6 decimals, so parameter keys print and encode stably.
double Round6(double x);

/// Non-missing numeric cells of `values`.
std::vector<double> Numeric(const std::vector<statdb::Value>& values);

struct TraceSummary;

/// Per-layer figures gathered over the traced part of a run: counter
/// deltas around each public call (replays excluded), replay timings,
/// and the isolating calls' spans. Emit() turns them into the per-layer
/// metrics every workload reports (0 where a layer does no work).
struct LayerTally {
  Counters query_delta;   // summed over traced query calls
  uint64_t queries = 0;
  Counters update_delta;  // summed over traced update calls
  uint64_t updates = 0;
  Counters op_delta;      // every traced call
  uint64_t ops = 0;
  uint64_t flushing_ops = 0;  // traced calls during which deltas flushed
  double pending_peak = 0;
  std::vector<double> commit_bytes;  // per WAL record, in order
  Samples commit_growth;             // per finished episode

  Samples column_read_ms, compute_ms, predicate_eval_ms, parallel_ms,
      probe_ms, regenerate_ms, rollback_ms, flush_ms, open_ms, close_ms;
  // Session::Stats summed over closed sessions.
  double session_queries = 0, timeline_hits = 0, snapshot_reads = 0,
         live_reads = 0;
  // Call wall of traced vs untraced blocks (trace overhead).
  Samples traced_call_ms, untraced_call_ms;

  /// Closes an episode of commits: records its last-decile over
  /// first-decile bytes per commit and starts the next episode afresh.
  void EndEpisode();
  /// Folds one traced call's counter delta in.
  void AddCall(const Counters& d, bool is_query, bool is_update);
  void Emit(Report* r, const TraceSummary& spans,
            double summary_entries) const;
};

/// Spans of all threads plus the per-layer figures the traced run adds
/// to the report: self time per span name, attribution of call spans to
/// their DBMS children, and the span file.
struct TraceSummary {
  double call_wall_ms = 0;        // sum over "call." spans
  double call_attributed_ms = 0;  // their children's time
  // span name -> (self ms, span count)
  std::map<std::string, std::pair<double, uint64_t>> self_ms;
};
TraceSummary SummarizeSpans(const std::vector<const SpanBuffer*>& buffers);

/// Writes every span and the self-time table as JSON lines.
void WriteSpanFile(const std::string& path,
                   const std::vector<const SpanBuffer*>& buffers,
                   const TraceSummary& summary);

// Workloads.
Report RunExplore(const Options& opt);
Report RunClean(const Options& opt);

}  // namespace loopbench

#endif  // STATDB_LOOPBENCH_LOOP_H_
