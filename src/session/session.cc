#include "session/session.h"

#include <chrono>
#include <utility>

#include "causal/trace_context.h"
#include "flight/flight_recorder.h"
#include "obs/trace.h"
#include "storage/column_file.h"
#include "summary/summary_key.h"

namespace statdb::session {

// ---------------------------------------------------------------------------
// Session

/// Brackets one session operation: refuses new work once the session is
/// closing, and keeps Close() blocked until in-flight work drains. The
/// seq_cst increment-then-recheck pairs with Close's set-then-wait: either
/// this guard sees closing_ and backs out, or Close sees the increment
/// and waits for the matching decrement.
class Session::OpGuard {
 public:
  explicit OpGuard(Session* s) : s_(s) {
    if (s_->closing_.load(std::memory_order_seq_cst)) {
      ok_ = false;
      return;
    }
    s_->in_flight_.fetch_add(1, std::memory_order_seq_cst);
    counted_ = true;
    if (s_->closing_.load(std::memory_order_seq_cst)) ok_ = false;
  }
  ~OpGuard() {
    if (!counted_) return;
    if (s_->in_flight_.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
        s_->closing_.load(std::memory_order_seq_cst)) {
      // Last operation out wakes the closer (who waits on the manager's
      // admission condvar).
      MutexLock lock(s_->mgr_->admission_mu_);
      s_->mgr_->admission_cv_.NotifyAll();
    }
  }
  bool ok() const { return ok_; }

  OpGuard(const OpGuard&) = delete;
  OpGuard& operator=(const OpGuard&) = delete;

 private:
  Session* s_;
  bool ok_ = true;
  bool counted_ = false;
};

Session::Session(SessionManager* mgr, uint64_t id, std::string label,
                 uint64_t pinned_seq, int epoch_slot)
    : mgr_(mgr),
      id_(id),
      label_(std::move(label)),
      pinned_seq_(pinned_seq),
      epoch_slot_(epoch_slot) {}

// Per-session scope bumps. Each bumps three ledgers in one place — the
// session atomic (stats()), the per-label instrument and the manager's
// global mirror — which is what makes the attribution invariant
// (sum of per-session == global) bit-exact rather than approximate.
void Session::BumpQueries() {
  queries_.fetch_add(1, std::memory_order_relaxed);
  if (m_queries_ != nullptr) m_queries_->Inc();
  if (mgr_->g_queries_ != nullptr) mgr_->g_queries_->Inc();
}

void Session::BumpCacheHits() {
  cache_hits_.fetch_add(1, std::memory_order_relaxed);
  if (m_cache_hits_ != nullptr) m_cache_hits_->Inc();
  if (mgr_->g_cache_hits_ != nullptr) mgr_->g_cache_hits_->Inc();
}

void Session::BumpRows(uint64_t rows) {
  if (rows == 0) return;
  const uint64_t pages =
      (rows + ColumnFile::kCellsPerPage - 1) / ColumnFile::kCellsPerPage;
  rows_.fetch_add(rows, std::memory_order_relaxed);
  pages_.fetch_add(pages, std::memory_order_relaxed);
  if (m_rows_ != nullptr) m_rows_->Inc(rows);
  if (m_pages_ != nullptr) m_pages_->Inc(pages);
  if (mgr_->g_rows_ != nullptr) mgr_->g_rows_->Inc(rows);
  if (mgr_->g_pages_ != nullptr) mgr_->g_pages_->Inc(pages);
}

void Session::RecordQueryMs(double ms) {
  if (m_query_ms_ != nullptr) m_query_ms_->Record(ms);
  if (mgr_->g_query_ms_ != nullptr) mgr_->g_query_ms_->Record(ms);
}

Result<QueryAnswer> Session::Query(const std::string& view,
                                   const std::string& function,
                                   const std::string& attribute,
                                   const FunctionParams& params) {
  OpGuard op(this);
  if (!op.ok()) return FailedPreconditionError("session is closing");
  // The session is the one entry point that knows which analyst is
  // asking: mint the causal context here, with the session id stamped,
  // so every downstream flight event (I/O retries, faults) joins this
  // query's trace (DESIGN.md §10).
  causal::ScopedTraceContext scope(causal::Mint(id_));
  TraceTimer timer;
  BumpQueries();

  const std::string key =
      SummaryKey::Of(function, attribute, params.Encode()).Encode();

  // Versioned summary timeline first (satellite fix: never the head
  // SummaryDatabase, whose versions Rollback clamps out from under
  // pinned readers). Entries are immutable value copies, so this probe
  // needs no epoch protection.
  if (Result<SummaryResult> cached =
          mgr_->timeline_.Lookup(view, key, pinned_seq_);
      cached.ok()) {
    BumpCacheHits();
    RecordQueryMs(timer.ElapsedMs());
    QueryAnswer a;
    a.result = *cached;
    a.source = AnswerSource::kCacheHit;
    return a;
  }

  // Everything from routing resolution through the timeline insert runs
  // inside one epoch critical section. That covers the live-byte reads
  // (a writer's grace period waits us out before mutating in place) and
  // makes the insert race-free against CloseView: a writer that could
  // invalidate our open cache window must Synchronize() after blocking
  // the route, which orders our Insert before its CloseView.
  EpochGuard epoch(&mgr_->epochs_, epoch_slot_);
  STATDB_ASSIGN_OR_RETURN(ColumnRoute route,
                          mgr_->registry_.Resolve(view, attribute,
                                                  pinned_seq_));

  // Same meta-data gate as the head query path (§3.2), applied to the
  // schema entry at the pinned seq.
  Schema one;
  one.Add(route.attr);
  STATDB_RETURN_IF_ERROR(
      mgr_->dbms_->CheckQueryable(one, function, attribute));

  std::vector<double> live_data;
  const std::vector<double>* data = nullptr;
  if (route.source == ColumnRoute::Source::kSnapshot) {
    snapshot_reads_.fetch_add(1, std::memory_order_relaxed);
    if (route.snapshot->numeric == nullptr) {
      return InvalidArgumentError("attribute is not numeric: " + attribute);
    }
    data = route.snapshot->numeric.get();
  } else {
    live_reads_.fetch_add(1, std::memory_order_relaxed);
    STATDB_ASSIGN_OR_RETURN(live_data,
                            route.live->ReadNumericColumn(attribute));
    data = &live_data;
  }

  BumpRows(data->size());
  STATDB_ASSIGN_OR_RETURN(
      SummaryResult result,
      mgr_->dbms_->management_db().functions().Compute(function, *data,
                                                       params));
  mgr_->timeline_.Insert(view, key, route.window_from, route.window_to,
                         result);
  RecordQueryMs(timer.ElapsedMs());

  QueryAnswer a;
  a.result = result;
  a.source = AnswerSource::kComputed;
  return a;
}

Result<std::vector<Value>> Session::ReadColumn(const std::string& view,
                                               const std::string& column) {
  OpGuard op(this);
  if (!op.ok()) return FailedPreconditionError("session is closing");
  causal::ScopedTraceContext scope(causal::Mint(id_));

  EpochGuard epoch(&mgr_->epochs_, epoch_slot_);
  STATDB_ASSIGN_OR_RETURN(
      ColumnRoute route, mgr_->registry_.Resolve(view, column, pinned_seq_));
  if (route.source == ColumnRoute::Source::kSnapshot) {
    snapshot_reads_.fetch_add(1, std::memory_order_relaxed);
    BumpRows(route.snapshot->values->size());
    return *route.snapshot->values;
  }
  live_reads_.fetch_add(1, std::memory_order_relaxed);
  Result<std::vector<Value>> values = route.live->ReadColumn(column);
  if (values.ok()) BumpRows(values.value().size());
  return values;
}

Result<std::vector<std::string>> Session::Columns(const std::string& view) {
  OpGuard op(this);
  if (!op.ok()) return FailedPreconditionError("session is closing");
  return mgr_->registry_.Columns(view, pinned_seq_);
}

Status Session::Close() { return mgr_->Close(this); }

Session::Stats Session::stats() const {
  Stats s;
  s.queries = queries_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.live_reads = live_reads_.load(std::memory_order_relaxed);
  s.snapshot_reads = snapshot_reads_.load(std::memory_order_relaxed);
  s.rows = rows_.load(std::memory_order_relaxed);
  s.pages = pages_.load(std::memory_order_relaxed);
  s.flushes = flushes_.load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// MutationScope

MutationScope::MutationScope(SessionManager* mgr, Kind kind, std::string view,
                             ConcreteView* live)
    : mgr_(mgr), kind_(kind), view_(std::move(view)), begin_live_(live) {
  if (mgr_ == nullptr) return;  // sessions disabled: inert
  status_ = mgr_->BeginMutation(kind_, view_, live);
  // On failure BeginMutation has already released writer serialization
  // and left reader routing untouched; the caller must abort.
  armed_ = status_.ok();
}

MutationScope::~MutationScope() {
  if (!armed_ || published_) return;
  if (kind_ == Kind::kDrop) {
    mgr_->EndMutation(view_, nullptr, /*dropped=*/true);
  } else {
    mgr_->EndMutation(view_, begin_live_, /*dropped=*/false);
  }
}

void MutationScope::Publish(ConcreteView* live) {
  if (!armed_ || published_) return;
  published_ = true;
  mgr_->EndMutation(view_, live, /*dropped=*/false);
}

void MutationScope::PublishDropped() {
  if (!armed_ || published_) return;
  published_ = true;
  mgr_->EndMutation(view_, nullptr, /*dropped=*/true);
}

// ---------------------------------------------------------------------------
// SessionManager

SessionManager::SessionManager(StatisticalDbms* dbms, SessionConfig config)
    : dbms_(dbms), config_(std::move(config)) {
  if (config_.max_sessions < 1) config_.max_sessions = 1;
  if (config_.max_sessions > static_cast<size_t>(EpochManager::kSlots)) {
    config_.max_sessions = EpochManager::kSlots;
  }
  slot_used_.assign(config_.max_sessions, false);
  // Global mirrors of the per-session scopes. Resolved once; bumped only
  // from the Session::Bump* helpers, never directly.
  MetricsRegistry& metrics = dbms_->metrics();
  g_queries_ = metrics.GetCounter("sessions.queries");
  g_cache_hits_ = metrics.GetCounter("sessions.cache_hits");
  g_rows_ = metrics.GetCounter("sessions.rows");
  g_pages_ = metrics.GetCounter("sessions.pages");
  g_flushes_ = metrics.GetCounter("sessions.flushes");
  g_query_ms_ = metrics.GetHistogram("sessions.query_ms");
}

SessionManager::~SessionManager() {
  CloseAll();
  // No reader thread may touch a session handle once the manager dies;
  // only now is it safe to free the retired (fail-closed) handles.
  MutexLock lock(admission_mu_);
  retired_sessions_.clear();
}

void SessionManager::BootstrapView(const std::string& view,
                                   ConcreteView* live) {
  registry_.RegisterView(view, live, live->schema(), current_seq());
}

Result<Session*> SessionManager::Open(std::string label) {
  MutexLock lock(admission_mu_);
  // A mutation mid-protocol may have skipped its capture because nobody
  // was pinned; opening now would pin a seq whose pre-image was never
  // taken. Mutations are short (capture + grace period) — wait them out.
  while (mutation_in_flight_) admission_cv_.Wait(admission_mu_);

  if (sessions_.size() >= config_.max_sessions) {
    if (config_.policy == SessionConfig::OverflowPolicy::kReject) {
      ++rejected_;
      return ResourceExhaustedError(
          "session limit reached (max_sessions=" +
          std::to_string(config_.max_sessions) + ")");
    }
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(config_.queue_timeout_ms);
    while (sessions_.size() >= config_.max_sessions || mutation_in_flight_) {
      const auto now = std::chrono::steady_clock::now();
      const int64_t remaining_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                now)
              .count();
      if (remaining_ms <= 0) {
        ++queue_timeouts_;
        return UnavailableError("session admission queue timed out after " +
                                std::to_string(config_.queue_timeout_ms) +
                                " ms");
      }
      admission_cv_.WaitFor(admission_mu_, remaining_ms);
    }
  }

  int slot = -1;
  for (size_t i = 0; i < slot_used_.size(); ++i) {
    if (!slot_used_[i]) {
      slot = static_cast<int>(i);
      break;
    }
  }
  if (slot < 0) {
    return InternalError("session slot accounting out of sync");
  }
  slot_used_[slot] = true;

  const uint64_t id = next_id_++;
  const uint64_t pinned = current_seq();
  auto session = std::unique_ptr<Session>(
      new Session(this, id, std::move(label), pinned, slot));
  Session* handle = session.get();
  const std::string scope = "session." + handle->label_ + ".";
  MetricsRegistry& metrics = dbms_->metrics();
  handle->m_queries_ = metrics.GetCounter(scope + "queries");
  handle->m_cache_hits_ = metrics.GetCounter(scope + "cache_hits");
  handle->m_rows_ = metrics.GetCounter(scope + "rows");
  handle->m_pages_ = metrics.GetCounter(scope + "pages");
  handle->m_flushes_ = metrics.GetCounter(scope + "flushes");
  handle->m_query_ms_ = metrics.GetHistogram(scope + "query_ms");
  sessions_[id] = std::move(session);
  ++opened_;
  dbms_->flight().Record(causal::Mint(id), FlightEventKind::kSessionOpen,
                         handle->label_, static_cast<int64_t>(id),
                         static_cast<int64_t>(pinned));
  return handle;
}

Status SessionManager::Close(Session* session) {
  if (session == nullptr) return InvalidArgumentError("null session");
  uint64_t id = 0;
  uint64_t queries = 0;
  std::string label;
  {
    MutexLock lock(admission_mu_);
    auto it = sessions_.find(session->id());
    if (it == sessions_.end() || it->second.get() != session) {
      return NotFoundError("session is not open");
    }
    bool expected = false;
    if (!session->closing_.compare_exchange_strong(
            expected, true, std::memory_order_seq_cst)) {
      return FailedPreconditionError("session already closing");
    }
    // Drain: in-flight operations refuse new work now (OpGuard sees
    // closing_) and the last one out notifies this condvar.
    while (session->in_flight_.load(std::memory_order_seq_cst) != 0) {
      admission_cv_.Wait(admission_mu_);
    }
    id = session->id();
    label = session->label();
    queries = session->queries_.load(std::memory_order_relaxed);
    slot_used_[session->epoch_slot_] = false;
    // Retire, don't free: a racing reader holding this handle must get
    // FAILED_PRECONDITION (closing_ stays set), never a use-after-free.
    retired_sessions_.push_back(std::move(it->second));
    sessions_.erase(it);
    ++closed_;
    // Reclaim snapshots only this session could reach. Lock order
    // admission_mu_ -> registry/timeline mutexes matches the writer
    // path (BeginMutation holds neither across the other).
    const uint64_t min_pinned = MinPinnedSeqLocked();
    registry_.TrimRetired(min_pinned);
    timeline_.Trim(min_pinned);
    admission_cv_.NotifyAll();  // wake queued Open()s
  }
  dbms_->flight().Record(causal::Mint(id), FlightEventKind::kSessionClose,
                         label, static_cast<int64_t>(id),
                         static_cast<int64_t>(queries));
  return Status::OK();
}

void SessionManager::CloseAll() {
  while (true) {
    Session* next = nullptr;
    {
      MutexLock lock(admission_mu_);
      if (sessions_.empty()) return;
      next = sessions_.begin()->second.get();
    }
    // A session that closed itself concurrently returns NOT_FOUND here;
    // CloseAll only cares that the map drains.
    (void)Close(next);
  }
}

size_t SessionManager::open_sessions() const {
  MutexLock lock(admission_mu_);
  return sessions_.size();
}

SessionManager::Stats SessionManager::stats() const {
  MutexLock lock(admission_mu_);
  Stats s;
  s.opened = opened_;
  s.closed = closed_;
  s.rejected = rejected_;
  s.queue_timeouts = queue_timeouts_;
  s.mutations = mutations_.load(std::memory_order_relaxed);
  s.captures = captures_.load(std::memory_order_relaxed);
  return s;
}

uint64_t SessionManager::MinPinnedSeqLocked() const {
  uint64_t min_pinned = current_seq() + 1;
  for (const auto& [id, s] : sessions_) {
    if (s->pinned_seq() < min_pinned) min_pinned = s->pinned_seq();
  }
  return min_pinned;
}

Status SessionManager::BeginMutation(MutationScope::Kind kind,
                                     const std::string& view,
                                     ConcreteView* live) {
  bool have_sessions = false;
  {
    MutexLock lock(admission_mu_);
    while (mutation_in_flight_) admission_cv_.Wait(admission_mu_);
    mutation_in_flight_ = true;
    have_sessions = !sessions_.empty();
  }
  // No pre-image needed when there is nothing to mutate (kCreate) or
  // nobody pinned (opens wait out this in-flight mutation, so no session
  // can pin a pre-publish seq from here on).
  if (kind == MutationScope::Kind::kCreate || live == nullptr ||
      !have_sessions) {
    return Status::OK();
  }

  // Capture immutable pre-images of every column, then block the live
  // route and wait out readers still on it. Reads happen before any
  // routing change, so a capture failure aborts cleanly: readers never
  // saw a blocked route.
  const uint64_t upto = current_seq();
  const Schema& schema = live->schema();
  std::vector<std::pair<std::string, std::shared_ptr<ColumnSnapshot>>>
      captures;
  captures.reserve(schema.size());
  for (size_t i = 0; i < schema.size(); ++i) {
    const Attribute& attr = schema.attr(i);
    Result<std::vector<Value>> values = live->ReadColumn(attr.name);
    if (!values.ok()) {
      AbortMutation();
      return values.status();
    }
    auto snap = std::make_shared<ColumnSnapshot>();
    snap->values = std::make_shared<const std::vector<Value>>(
        std::move(*values));
    // Numeric projection for the query path; non-numeric columns keep a
    // null numeric vector and can only be ReadColumn'd.
    if (attr.type == DataType::kInt64 || attr.type == DataType::kDouble) {
      Result<std::vector<double>> numeric =
          live->ReadNumericColumn(attr.name);
      if (!numeric.ok()) {
        AbortMutation();
        return numeric.status();
      }
      snap->numeric = std::make_shared<const std::vector<double>>(
          std::move(*numeric));
    }
    captures.emplace_back(attr.name, std::move(snap));
  }
  captures_.fetch_add(captures.size(), std::memory_order_relaxed);
  registry_.BlockView(view, std::move(captures), upto);
  // Grace period: after this returns, no pinned reader is on the live
  // route — the caller may mutate the bytes in place. We hold no lock
  // here (admission_mu_ released above, registry mutex released inside
  // BlockView), so readers can always drain.
  epochs_.Synchronize();
  return Status::OK();
}

void SessionManager::EndMutation(const std::string& view, ConcreteView* live,
                                 bool dropped) {
  const uint64_t prev =
      commit_seq_.fetch_add(1, std::memory_order_seq_cst);
  const uint64_t seq = prev + 1;
  if (dropped) {
    registry_.PublishViewDropped(view, seq);
  } else if (live != nullptr) {
    registry_.PublishView(view, live, live->schema(), seq);
  }
  // Every publish closes the timeline's open windows for this view —
  // including capture-skipped ones: a stale open entry would claim
  // validity across the mutation and poison sessions opened after it.
  timeline_.CloseView(view, prev);
  mutations_.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(admission_mu_);
  // BeginMutation captured with no lock held, so the last reader's Close
  // may have trimmed before this capture landed in `retired`; trim again
  // (same admission_mu_ -> registry order as Close).
  registry_.TrimRetired(MinPinnedSeqLocked());
  mutation_in_flight_ = false;
  admission_cv_.NotifyAll();
}

void SessionManager::AbortMutation() {
  MutexLock lock(admission_mu_);
  mutation_in_flight_ = false;
  admission_cv_.NotifyAll();
}

}  // namespace statdb::session
