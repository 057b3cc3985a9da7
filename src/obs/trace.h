#ifndef STATDB_OBS_TRACE_H_
#define STATDB_OBS_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/sync.h"

namespace statdb {

/// statdb::obs — per-query tracing (DESIGN.md §10).
///
/// One QueryTrace records the phases of one Query*/QueryMany call as
/// spans — cache probe, staleness gate, inference, scan (serial or
/// per-chunk parallel), statistic computation, maintainer arming, summary
/// insert — each with wall time and rows/pages touched. Traces map a
/// query onto the paper's cost model: which §4.3 strategy answered, and
/// what each alternative would have cost.
///
/// Cost discipline: a trace is only built when a TraceSink is attached.
/// With no sink, the Query* paths pass a null QueryTrace* down and every
/// instrumentation site collapses to one pointer test — no clock reads,
/// no allocation (ScopedSpan below). With a sink, spans land in a
/// fixed-capacity inline array; nothing allocates until the sink copies.

/// Phases a query can spend time in.
enum class SpanKind : uint8_t {
  kCacheProbe = 0,     // Summary Database lookup
  kStalenessGate = 1,  // allow_stale / max_version_lag decision
  kInference = 2,      // Database-Abstract rule consultation
  kScan = 3,           // column read (whole serial read, or parallel wall)
  kScanChunk = 4,      // one page-aligned chunk of a parallel scan
  kCompute = 5,        // statistic computation / partial-state finish
  kMaintainerArm = 6,  // incremental-maintainer construction + init
  kSummaryInsert = 7,  // Summary Database insert of the fresh result
  // Recovery phases (Dbms::Recover emits a "recover"-labeled trace so
  // crash recovery is no longer an observability black hole):
  kWalScan = 8,             // redo-log open + record scan
  kRedoReplay = 9,          // full-page-image replay into the pools
  kManifestApply = 10,      // catalog/view/summary state rebuild
  kFallbackInvalidate = 11, // §4.3 hinted-attribute invalidation
  // Compressed-domain scan over the RLE sidecar (DESIGN.md §14): rows =
  // logical cells covered, pages = compressed pages touched.
  kCompressedScan = 12,
  // Mutation phases (Update, Rollback):
  kSnapshotCapture = 13,  // session pre-image capture + grace (MutationScope)
  kPredicateScan = 14,    // predicate update's page-at-a-time evaluation
  kMaintenance = 15,      // indexes, derived columns, history, summaries
  kWalCommit = 16,        // the durable commit (CommitDurable)
  // An order state sorted from a gathered column, or its queued changes
  // merged in (DESIGN.md §14): kept apart from the compute it saves.
  kOrderBuild = 17,
};

const char* SpanKindName(SpanKind kind);

struct TraceSpan {
  SpanKind kind = SpanKind::kCacheProbe;
  /// Chunk index for kScanChunk spans; -1 otherwise.
  int32_t detail = -1;
  double wall_ms = 0;
  uint64_t rows = 0;   // rows (cells) this phase touched
  uint64_t pages = 0;  // storage pages this phase touched (approximate)
  /// When the span started, in ms since the trace was constructed —
  /// lets exporters (Chrome trace events) lay spans on a timeline
  /// instead of only summing durations.
  double start_ms = 0;
};

/// Provenance labels mirrored from core's AnswerSource (obs sits below
/// core in the dependency DAG, so it keeps its own copy).
enum class TraceOutcome : uint8_t {
  kUnknown = 0,
  kCacheHit = 1,
  kStaleCacheHit = 2,
  kInferred = 3,
  kComputed = 4,
  kError = 5,
};

const char* TraceOutcomeName(TraceOutcome outcome);

/// Wall-clock stopwatch: the one clock of tracing call sites, QueryTrace
/// span offsets and the flight recorder's timestamps.
class TraceTimer {
 public:
  TraceTimer() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

class QueryTrace {
 public:
  /// Enough for a batch: per-request probes plus 4-worker over-decomposed
  /// chunk spans. Overflow drops spans and counts them, never grows.
  static constexpr size_t kMaxSpans = 96;

  void SetLabel(std::string operation, std::string view,
                std::string function, std::string attribute) {
    operation_ = std::move(operation);
    view_ = std::move(view);
    function_ = std::move(function);
    attribute_ = std::move(attribute);
  }
  void SetOutcome(TraceOutcome outcome) { outcome_ = outcome; }
  void SetTotalMs(double ms) { total_ms_ = ms; }

  /// Stamps the causal identity (DESIGN.md §10). Plain integers, not a
  /// causal::TraceContext — obs sits below causal in the dependency DAG.
  void SetContext(uint64_t trace_id, uint64_t session_id,
                  uint64_t query_seq) {
    trace_id_ = trace_id;
    session_id_ = session_id;
    query_seq_ = query_seq;
  }
  uint64_t trace_id() const { return trace_id_; }
  uint64_t session_id() const { return session_id_; }
  uint64_t query_seq() const { return query_seq_; }

  void Add(SpanKind kind, double wall_ms, uint64_t rows = 0,
           uint64_t pages = 0, int32_t detail = -1, double start_ms = 0) {
    if (count_ >= kMaxSpans) {
      ++dropped_;
      return;
    }
    spans_[count_++] =
        TraceSpan{kind, detail, wall_ms, rows, pages, start_ms};
  }

  /// Ms elapsed since this trace was constructed — the span timeline's
  /// clock (ScopedSpan samples it once at open).
  double NowOffsetMs() const { return epoch_.ElapsedMs(); }

  size_t size() const { return count_; }
  const TraceSpan& span(size_t i) const { return spans_[i]; }
  uint64_t dropped() const { return dropped_; }

  const std::string& operation() const { return operation_; }
  const std::string& view() const { return view_; }
  const std::string& function() const { return function_; }
  const std::string& attribute() const { return attribute_; }
  TraceOutcome outcome() const { return outcome_; }
  double total_ms() const { return total_ms_; }

  /// Sum of span wall times, excluding kScanChunk (chunks run under the
  /// enclosing kScan span on other threads, so they overlap wall time).
  double SpanSumMs() const;

  std::string ToJson() const;
  /// The `explain` rendering: one aligned row per span.
  std::string ToText() const;

 private:
  std::array<TraceSpan, kMaxSpans> spans_ = {};
  size_t count_ = 0;
  uint64_t dropped_ = 0;
  std::string operation_;
  std::string view_;
  std::string function_;
  std::string attribute_;
  TraceOutcome outcome_ = TraceOutcome::kUnknown;
  double total_ms_ = 0;
  uint64_t trace_id_ = 0;
  uint64_t session_id_ = 0;
  uint64_t query_seq_ = 0;
  TraceTimer epoch_;
};

/// Receives every finished trace. Implementations must be thread-safe if
/// queries run concurrently (QueryMany hammering in tests).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnQueryTrace(const QueryTrace& trace) = 0;
};

/// Buffers traces for tests, benches and the shell's `explain`.
class CollectingTraceSink : public TraceSink {
 public:
  void OnQueryTrace(const QueryTrace& trace) override {
    MutexLock lock(mu_);
    traces_.push_back(trace);
  }
  std::vector<QueryTrace> Take() {
    MutexLock lock(mu_);
    std::vector<QueryTrace> out = std::move(traces_);
    traces_.clear();
    return out;
  }
  size_t size() const {
    MutexLock lock(mu_);
    return traces_.size();
  }

 private:
  mutable Mutex mu_;
  std::vector<QueryTrace> traces_ STATDB_GUARDED_BY(mu_);
};

/// RAII span: reads the trace clock when (and only when) a trace is attached,
/// records the span on destruction. With trace == nullptr the constructor
/// and destructor are each one predictable branch — the zero-cost path.
class ScopedSpan {
 public:
  ScopedSpan(QueryTrace* trace, SpanKind kind, int32_t detail = -1)
      : trace_(trace), kind_(kind), detail_(detail) {
    if (trace_ != nullptr) start_offset_ms_ = trace_->NowOffsetMs();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (trace_ == nullptr) return;
    trace_->Add(kind_, trace_->NowOffsetMs() - start_offset_ms_, rows_,
                pages_, detail_, start_offset_ms_);
  }

  void SetRows(uint64_t rows) { rows_ = rows; }
  void SetPages(uint64_t pages) { pages_ = pages; }
  /// Rows plus the page count implied by `cells_per_page` cells per page.
  void SetRowsPaged(uint64_t rows, size_t cells_per_page) {
    rows_ = rows;
    pages_ = cells_per_page == 0 ? 0
                                 : (rows + cells_per_page - 1) /
                                       cells_per_page;
  }

 private:
  QueryTrace* trace_;
  SpanKind kind_;
  int32_t detail_;
  uint64_t rows_ = 0;
  uint64_t pages_ = 0;
  double start_offset_ms_ = 0;
};

}  // namespace statdb

#endif  // STATDB_OBS_TRACE_H_
