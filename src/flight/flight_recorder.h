#ifndef STATDB_FLIGHT_FLIGHT_RECORDER_H_
#define STATDB_FLIGHT_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "causal/trace_context.h"
#include "common/sync.h"
#include "obs/trace.h"

namespace statdb {

/// statdb::flight — the flight recorder (DESIGN.md §10).
///
/// PR 3's metrics answer "how much, in total"; PR 3's traces answer "where
/// did this one query spend its time". Neither answers the question a
/// crash-matrix failure actually asks: *what was the system doing just
/// before it died?* The flight recorder is the black box for that — a
/// fixed-size ring of small structured events (query end, cache verdicts,
/// maintainer arm/fire, WAL commit, injected fault, I/O retry, recovery
/// step, degraded flip) that costs one relaxed load when disabled and a
/// handful of relaxed stores when enabled, and that can always dump its
/// last-N-events window as JSON — including automatically, once, on the
/// first DATA_LOSS or degraded-mode entry. Beside the ring it keeps the
/// slow-query log's traces, so one dump is the whole incident document.
///
/// Concurrency design: writers claim a slot with one fetch_add and stamp
/// it with a per-slot sequence marker (odd while the payload is being
/// written, `seq*2+2` once published). Readers copy the payload and accept
/// it only if the marker is identical-and-even before and after the copy —
/// a per-slot seqlock. Every payload field is a relaxed atomic so the
/// scheme is exact under TSan, not merely benign: no locks on the write
/// path, wait-free except for the (unbounded but contention-free) reader
/// retry which Dump sidesteps by skipping torn slots.

/// What happened. Values are stable — they appear in dumped JSON.
enum class FlightEventKind : uint8_t {
  kQueryBegin = 0,      // a = request index in batch (or 0)
  kQueryEnd = 1,        // a = outcome (AnswerSource), b = rows, x = wall ms
  kCacheHit = 2,        // summary database answered fresh
  kCacheMiss = 3,       // summary database had nothing usable
  kStaleServe = 4,      // stale summary served under allow_stale
  kMaintainerArm = 5,   // incremental maintainer constructed
  kMaintainerFire = 6,  // maintainer applied an update delta
  kWalCommit = 7,       // a = lsn, b = pages in record, x = wal ms
  kFaultInjected = 8,   // a = FaultKind, b = page id
  kIoRetry = 9,         // a = attempt #, b = page id, x = backoff ms
  kRecoveryStep = 10,   // a/b step-specific (see recovery.cc)
  kDegraded = 11,       // read-only degraded mode entered
  kDataLoss = 12,       // checksum mismatch / unrecoverable read
  kUpdate = 13,         // a = view version after, b = cells changed
  kRollback = 14,       // a = version rolled back to
  kSessionOpen = 15,    // a = session id, b = pinned commit seq
  kSessionClose = 16,   // a = session id, b = queries served
  kPolicySwitch = 17,   // "view.attr"; a = from strategy, b = to strategy
  kDeltaFlush = 18,     // "view.attr"; a = batch size, b = entries refreshed
};

const char* FlightEventKindName(FlightEventKind kind);

/// One published event, as handed to readers. POD, fixed size.
struct FlightEvent {
  uint64_t seq = 0;    // global order of the event
  double t_ms = 0;     // ms since recorder construction
  FlightEventKind kind = FlightEventKind::kQueryBegin;
  char label[48] = {};  // "view.fn(attr)" etc.; truncated, NUL-terminated
  int64_t a = 0;        // kind-specific payload (see enum comments)
  int64_t b = 0;
  double x = 0;
  /// The causal::TraceContext id of the operation this event belongs to
  /// (DESIGN.md §10), or 0 when no context was live — the join key
  /// against QueryTrace spans, delta-flush records and WAL commits.
  uint64_t trace = 0;
};

/// One event as every dump renders it: {seq, t_ms, kind, label, a, b, x,
/// trace}.
std::string FlightEventJson(const FlightEvent& ev);

class FlightRecorder;

/// Bounded log of the slowest operations (DESIGN.md §10). It stores only
/// the QueryTrace of each top-level operation whose wall time reached the
/// threshold, dropping the oldest when full; the flight events of an
/// entry are joined from the ring by trace id when the log is read, so
/// they are whatever the ring still holds at that moment.
class SlowQueryLog {
 public:
  static constexpr size_t kDefaultCapacity = 32;
  static constexpr double kDefaultThresholdMs = 50.0;

  /// One slow operation: its trace and the ring events carrying its id.
  struct Entry {
    QueryTrace trace;
    std::vector<FlightEvent> events;
  };

  explicit SlowQueryLog(const FlightRecorder* ring,
                        size_t capacity = kDefaultCapacity)
      : ring_(ring), capacity_(capacity == 0 ? 1 : capacity) {}

  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

  /// Capture gate. Off by default: the owner only builds QueryTraces on
  /// every operation (the log's raw material) while the log is enabled.
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_threshold_ms(double ms) {
    threshold_ms_.store(ms, std::memory_order_relaxed);
  }
  double threshold_ms() const {
    return threshold_ms_.load(std::memory_order_relaxed);
  }

  /// Keeps a copy of `trace` when capture is on and its total_ms()
  /// reaches the threshold.
  void MaybeCapture(const QueryTrace& trace);

  /// The retained traces, each joined with the ring's current window.
  std::vector<Entry> Snapshot() const;
  /// {threshold_ms, capacity, captured, dropped, entries: [{trace_id,
  ///  wall_ms, outcome, trace, flight_events}, ...]}, joined against
  /// `events` (one ring snapshot shared with the enclosing dump).
  std::string ToJson(const std::vector<FlightEvent>& events) const;

  size_t size() const;
  uint64_t captured() const {
    return captured_.load(std::memory_order_relaxed);
  }
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  void Clear();

 private:
  std::vector<Entry> Join(const std::vector<FlightEvent>& events) const;

  const FlightRecorder* ring_;
  const size_t capacity_;
  std::atomic<bool> enabled_{false};
  std::atomic<double> threshold_ms_{kDefaultThresholdMs};
  std::atomic<uint64_t> captured_{0};
  std::atomic<uint64_t> dropped_{0};
  mutable Mutex mu_;
  std::deque<QueryTrace> traces_ STATDB_GUARDED_BY(mu_);
};

class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 1024;
  static constexpr size_t kLabelWords = 6;  // 48 label bytes as uint64s

  /// `capacity` is rounded up to a power of two (slot math is one mask).
  explicit FlightRecorder(size_t capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The hot-path entry point. Disabled: one relaxed load and a branch.
  /// Events are stamped with the calling thread's current trace id —
  /// layers below the TraceContext signature boundary (buffer pool,
  /// devices, WAL) attribute to whoever minted the ambient context.
  void Record(FlightEventKind kind, std::string_view label, int64_t a = 0,
              int64_t b = 0, double x = 0) {
    if (!enabled_.load(std::memory_order_relaxed)) return;
    RecordSlow(kind, label, a, b, x, causal::CurrentTraceId());
  }

  /// Explicit-context form (lint rule R8: core/delta/session call sites
  /// must use this one). Stamps `ctx.trace_id` even when called off the
  /// minting thread — the propagated context, not the ambient slot, is
  /// authoritative.
  void Record(const causal::TraceContext& ctx, FlightEventKind kind,
              std::string_view label, int64_t a = 0, int64_t b = 0,
              double x = 0) {
    if (!enabled_.load(std::memory_order_relaxed)) return;
    RecordSlow(kind, label, a, b, x, ctx.trace_id);
  }

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Keep 1-in-`n` of the *samplable* kinds (cache verdicts, query
  /// begin/end, update). Rare, diagnosis-critical kinds — faults,
  /// retries, recovery, WAL commits, degraded/DATA_LOSS flips,
  /// maintainer fire, rollback — are never sampled out. n is rounded up
  /// to a power of two; n <= 1 disables sampling.
  void set_sample_every(uint64_t n);
  uint64_t sample_every() const {
    return sample_mask_.load(std::memory_order_relaxed) + 1;
  }

  size_t capacity() const { return capacity_; }
  /// Events accepted into the ring (post-sampling), total ever.
  uint64_t recorded() const {
    return head_.load(std::memory_order_relaxed);
  }
  /// Events dropped by sampling, total ever.
  uint64_t sampled_out() const {
    return sampled_out_.load(std::memory_order_relaxed);
  }

  /// Copies the currently-published window (oldest surviving → newest).
  /// Slots a writer is mid-stamp on are skipped, not blocked on.
  std::vector<FlightEvent> SnapshotEvents() const;

  /// The slow-query log kept beside the ring. Disabled by default:
  /// capturing needs a trace built on every query.
  SlowQueryLog& slow_log() { return slow_log_; }
  const SlowQueryLog& slow_log() const { return slow_log_; }

  /// The incident document: {"flight": {..., "events": [...],
  /// "slow_traces": {...}}} over the surviving window, with each slow
  /// trace joined to the same window. `reason` tags the dump ("manual",
  /// "degraded", "data_loss", ...).
  std::string DumpJson(const std::string& reason = "manual") const;

  /// Arms the automatic black-box dump: the first AutoDumpOnce() after
  /// this writes DumpJson(reason) to `path`. Empty path disarms.
  void set_auto_dump_path(std::string path);

  /// Fires at most once until Clear() (first caller wins; later calls —
  /// and calls with no armed path — are no-ops). Returns true if this
  /// call performed the dump. Safe from any thread; only the rare
  /// DATA_LOSS/degraded paths call it, so one mutex guards the latch.
  bool AutoDumpOnce(const std::string& reason);
  uint64_t auto_dumps() const {
    return auto_dumps_.load(std::memory_order_relaxed);
  }

  /// Drops the recorded window and the slow traces and re-arms the auto
  /// dump. Counters keep their lifetime totals; `head_` keeps climbing
  /// so seqs stay unique.
  void Clear();

  double NowMs() const { return epoch_.ElapsedMs(); }

 private:
  // A slot's marker is 0 (never written), odd (writer mid-stamp), or
  // seq*2+2 (payload for `seq` is published). Payload fields are relaxed
  // atomics; the marker's release/acquire pair orders them.
  struct Slot {
    std::atomic<uint64_t> marker{0};
    std::atomic<double> t_ms{0};
    std::atomic<uint8_t> kind{0};
    std::atomic<int64_t> a{0};
    std::atomic<int64_t> b{0};
    std::atomic<double> x{0};
    std::atomic<uint64_t> trace{0};
    std::atomic<uint64_t> label[kLabelWords] = {};
  };

  void RecordSlow(FlightEventKind kind, std::string_view label, int64_t a,
                  int64_t b, double x, uint64_t trace);

  const size_t capacity_;
  const size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  TraceTimer epoch_;

  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> head_{0};
  std::atomic<uint64_t> sample_mask_{0};  // keep when (tick & mask) == 0
  std::atomic<uint64_t> sample_tick_{0};
  std::atomic<uint64_t> sampled_out_{0};

  SlowQueryLog slow_log_{this};

  std::atomic<uint64_t> auto_dumps_{0};
  Mutex auto_dump_mu_;
  std::string auto_dump_path_ STATDB_GUARDED_BY(auto_dump_mu_);
  bool auto_dump_fired_ STATDB_GUARDED_BY(auto_dump_mu_) = false;
};

}  // namespace statdb

#endif  // STATDB_FLIGHT_FLIGHT_RECORDER_H_
