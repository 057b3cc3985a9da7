#include "flight/flight_recorder.h"

#include <algorithm>
#include <bit>
#include <fstream>
#include <iterator>

#include "obs/json.h"

namespace statdb {

namespace {

/// Samplable kinds are the per-query-frequency ones; everything that
/// marks a fault, a durability boundary or a state flip survives any
/// sampling rate — those are exactly the events a post-mortem needs.
bool IsSamplable(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kQueryBegin:
    case FlightEventKind::kQueryEnd:
    case FlightEventKind::kCacheHit:
    case FlightEventKind::kCacheMiss:
    case FlightEventKind::kStaleServe:
    case FlightEventKind::kMaintainerArm:
    case FlightEventKind::kUpdate:
      return true;
    default:
      return false;
  }
}

size_t RoundUpPow2(size_t n) {
  if (n < 2) return 2;
  return std::bit_ceil(n);
}

std::string EventsJson(const std::vector<FlightEvent>& events) {
  std::vector<std::string> rows;
  rows.reserve(events.size());
  for (const FlightEvent& ev : events) rows.push_back(FlightEventJson(ev));
  return obs::JsonArray(rows);
}

}  // namespace

const char* FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kQueryBegin: return "query_begin";
    case FlightEventKind::kQueryEnd: return "query_end";
    case FlightEventKind::kCacheHit: return "cache_hit";
    case FlightEventKind::kCacheMiss: return "cache_miss";
    case FlightEventKind::kStaleServe: return "stale_serve";
    case FlightEventKind::kMaintainerArm: return "maintainer_arm";
    case FlightEventKind::kMaintainerFire: return "maintainer_fire";
    case FlightEventKind::kWalCommit: return "wal_commit";
    case FlightEventKind::kFaultInjected: return "fault_injected";
    case FlightEventKind::kIoRetry: return "io_retry";
    case FlightEventKind::kRecoveryStep: return "recovery_step";
    case FlightEventKind::kSessionOpen: return "session_open";
    case FlightEventKind::kSessionClose: return "session_close";
    case FlightEventKind::kDegraded: return "degraded";
    case FlightEventKind::kDataLoss: return "data_loss";
    case FlightEventKind::kUpdate: return "update";
    case FlightEventKind::kRollback: return "rollback";
    case FlightEventKind::kPolicySwitch: return "policy_switch";
    case FlightEventKind::kDeltaFlush: return "delta_flush";
  }
  return "unknown";
}

std::string FlightEventJson(const FlightEvent& ev) {
  return obs::JsonObject()
      .Int("seq", ev.seq)
      .Num("t_ms", ev.t_ms)
      .Str("kind", FlightEventKindName(ev.kind))
      .Str("label", ev.label)
      .Raw("a", std::to_string(ev.a))
      .Raw("b", std::to_string(ev.b))
      .Num("x", ev.x)
      .Int("trace", ev.trace)
      .Build();
}

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(RoundUpPow2(capacity)),
      mask_(capacity_ - 1),
      slots_(std::make_unique<Slot[]>(capacity_)) {}

void FlightRecorder::set_sample_every(uint64_t n) {
  uint64_t pow2 = n <= 1 ? 1 : std::bit_ceil(n);
  sample_mask_.store(pow2 - 1, std::memory_order_relaxed);
}

void FlightRecorder::RecordSlow(FlightEventKind kind,
                                std::string_view label, int64_t a,
                                int64_t b, double x, uint64_t trace) {
  uint64_t mask = sample_mask_.load(std::memory_order_relaxed);
  if (mask != 0 && IsSamplable(kind)) {
    uint64_t tick =
        sample_tick_.fetch_add(1, std::memory_order_relaxed);
    if ((tick & mask) != 0) {
      sampled_out_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }

  uint64_t seq = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& s = slots_[seq & mask_];
  // Odd marker = "torn"; readers that see it (or see it change across
  // their copy) discard the slot. acq_rel so a reader that observes the
  // final even marker also observes every payload store before it.
  s.marker.store(seq * 2 + 1, std::memory_order_release);

  s.t_ms.store(NowMs(), std::memory_order_relaxed);
  s.kind.store(static_cast<uint8_t>(kind), std::memory_order_relaxed);
  s.a.store(a, std::memory_order_relaxed);
  s.b.store(b, std::memory_order_relaxed);
  s.x.store(x, std::memory_order_relaxed);
  s.trace.store(trace, std::memory_order_relaxed);
  uint64_t words[kLabelWords] = {};
  size_t n = std::min(label.size(), sizeof(words) - 1);  // keep a NUL
  std::memcpy(words, label.data(), n);
  for (size_t i = 0; i < kLabelWords; ++i) {
    s.label[i].store(words[i], std::memory_order_relaxed);
  }

  s.marker.store(seq * 2 + 2, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::SnapshotEvents() const {
  std::vector<FlightEvent> out;
  uint64_t head = head_.load(std::memory_order_acquire);
  uint64_t first = head > capacity_ ? head - capacity_ : 0;
  out.reserve(static_cast<size_t>(head - first));
  for (uint64_t seq = first; seq < head; ++seq) {
    const Slot& s = slots_[seq & mask_];
    uint64_t before = s.marker.load(std::memory_order_acquire);
    if (before != seq * 2 + 2) continue;  // torn or already overwritten
    FlightEvent ev;
    ev.seq = seq;
    ev.t_ms = s.t_ms.load(std::memory_order_relaxed);
    ev.kind = static_cast<FlightEventKind>(
        s.kind.load(std::memory_order_relaxed));
    ev.a = s.a.load(std::memory_order_relaxed);
    ev.b = s.b.load(std::memory_order_relaxed);
    ev.x = s.x.load(std::memory_order_relaxed);
    ev.trace = s.trace.load(std::memory_order_relaxed);
    uint64_t words[kLabelWords];
    for (size_t i = 0; i < kLabelWords; ++i) {
      words[i] = s.label[i].load(std::memory_order_relaxed);
    }
    std::memcpy(ev.label, words, sizeof(ev.label));
    ev.label[sizeof(ev.label) - 1] = '\0';
    uint64_t after = s.marker.load(std::memory_order_acquire);
    if (after != before) continue;  // a writer lapped us mid-copy
    out.push_back(ev);
  }
  return out;
}

std::string FlightRecorder::DumpJson(const std::string& reason) const {
  std::vector<FlightEvent> events = SnapshotEvents();
  return obs::JsonObject()
      .Open("flight")
      .Str("reason", reason)
      .Bool("enabled", enabled())
      .Int("capacity", capacity_)
      .Int("recorded", recorded())
      .Int("sampled_out", sampled_out())
      .Int("sample_every", sample_every())
      .Int("auto_dumps", auto_dumps())
      .Raw("events", EventsJson(events))
      .Raw("slow_traces", slow_log_.ToJson(events))
      .Close()
      .Build();
}

void FlightRecorder::set_auto_dump_path(std::string path) {
  MutexLock lock(auto_dump_mu_);
  auto_dump_path_ = std::move(path);
}

bool FlightRecorder::AutoDumpOnce(const std::string& reason) {
  std::string path;
  {
    MutexLock lock(auto_dump_mu_);
    if (auto_dump_path_.empty() || auto_dump_fired_) return false;
    auto_dump_fired_ = true;  // first caller wins
    path = auto_dump_path_;
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << DumpJson(reason) << "\n";
  auto_dumps_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void FlightRecorder::Clear() {
  // Invalidate every published slot; in-flight writers republish theirs
  // with fresh seqs as head_ keeps climbing.
  for (size_t i = 0; i < capacity_; ++i) {
    slots_[i].marker.store(0, std::memory_order_release);
  }
  slow_log_.Clear();
  MutexLock lock(auto_dump_mu_);
  auto_dump_fired_ = false;
}

void SlowQueryLog::MaybeCapture(const QueryTrace& trace) {
  if (!enabled() || trace.total_ms() < threshold_ms()) return;
  captured_.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(mu_);
  if (traces_.size() >= capacity_) {
    traces_.pop_front();
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  traces_.push_back(trace);
}

std::vector<SlowQueryLog::Entry> SlowQueryLog::Join(
    const std::vector<FlightEvent>& events) const {
  MutexLock lock(mu_);
  std::vector<Entry> out(traces_.size());
  for (size_t i = 0; i < traces_.size(); ++i) {
    out[i].trace = traces_[i];
    const uint64_t id = traces_[i].trace_id();
    if (id == 0) continue;
    std::copy_if(events.begin(), events.end(),
                 std::back_inserter(out[i].events),
                 [id](const FlightEvent& ev) { return ev.trace == id; });
  }
  return out;
}

std::vector<SlowQueryLog::Entry> SlowQueryLog::Snapshot() const {
  return Join(ring_->SnapshotEvents());
}

std::string SlowQueryLog::ToJson(
    const std::vector<FlightEvent>& events) const {
  std::vector<std::string> rows;
  for (const Entry& entry : Join(events)) {
    rows.push_back(obs::JsonObject()
                       .Int("trace_id", entry.trace.trace_id())
                       .Num("wall_ms", entry.trace.total_ms())
                       .Str("outcome",
                            TraceOutcomeName(entry.trace.outcome()))
                       .Raw("trace", entry.trace.ToJson())
                       .Raw("flight_events", EventsJson(entry.events))
                       .Build());
  }
  return obs::JsonObject()
      .Num("threshold_ms", threshold_ms())
      .Int("capacity", capacity_)
      .Int("captured", captured())
      .Int("dropped", dropped())
      .Raw("entries", obs::JsonArray(rows))
      .Build();
}

size_t SlowQueryLog::size() const {
  MutexLock lock(mu_);
  return traces_.size();
}

void SlowQueryLog::Clear() {
  MutexLock lock(mu_);
  traces_.clear();
}

}  // namespace statdb
