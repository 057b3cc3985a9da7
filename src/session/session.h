#ifndef STATDB_SESSION_SESSION_H_
#define STATDB_SESSION_SESSION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "core/dbms.h"
#include "obs/metrics.h"
#include "session/epoch.h"
#include "session/snapshot.h"

namespace statdb::session {

class SessionManager;

/// Admission policy and capacity of the session layer.
struct SessionConfig {
  /// Concurrently open sessions; must be in [1, EpochManager::kSlots].
  size_t max_sessions = 8;
  enum class OverflowPolicy : uint8_t {
    kReject = 0,  // Open beyond capacity -> RESOURCE_EXHAUSTED
    kQueue = 1,   // Open waits up to queue_timeout_ms for a slot
  };
  OverflowPolicy policy = OverflowPolicy::kReject;
  int64_t queue_timeout_ms = 1000;
};

/// One analyst session, pinned at the commit seq current when it opened
/// (DESIGN.md §15). Reads resolve against that snapshot and never take
/// the write path's locks: the query path is epoch-enter, routing-table
/// lookup under a briefly-held SharedMutex, then either a retired
/// pre-image read (plain shared_ptr deref) or a live column read that
/// the epoch protocol keeps race-free against in-place mutation.
///
/// Sessions are opened and closed through SessionManager; Close()
/// invalidates the handle. All methods are safe to call from the
/// session's own thread while writers mutate concurrently; a Session
/// object itself is not meant to be shared across reader threads
/// (open one session per analyst thread — that is the point).
class Session {
 public:
  uint64_t id() const { return id_; }
  const std::string& label() const { return label_; }
  /// The commit seq this session's reads resolve against.
  uint64_t pinned_seq() const { return pinned_seq_; }

  /// Snapshot-isolated query: same semantics as StatisticalDbms::Query
  /// but resolved at pinned_seq(), served from the session layer's
  /// versioned summary timeline when a cached window covers the pin.
  Result<QueryAnswer> Query(const std::string& view,
                            const std::string& function,
                            const std::string& attribute,
                            const FunctionParams& params = {});

  /// Snapshot-isolated column read (full decoded column at pinned_seq).
  Result<std::vector<Value>> ReadColumn(const std::string& view,
                                        const std::string& column);

  /// Column names of `view` as of pinned_seq().
  Result<std::vector<std::string>> Columns(const std::string& view);

  /// Closes this session (idempotent via the manager; the handle is
  /// invalid after a successful close). Concurrent in-flight queries on
  /// other threads drain first — Close blocks until they finish.
  Status Close();

  struct Stats {
    uint64_t queries = 0;
    uint64_t cache_hits = 0;
    uint64_t live_reads = 0;      // resolved to the live view
    uint64_t snapshot_reads = 0;  // resolved to a retired pre-image
    uint64_t rows = 0;            // rows materialized for this session
    uint64_t pages = 0;           // page equivalents of those rows
    /// Delta flushes this session triggered. Sessions are read-only
    /// (snapshot-isolated), so this is 0 today; the scope exists so the
    /// per-session/global attribution invariant covers the counter the
    /// day sessions gain a write path.
    uint64_t flushes = 0;
  };
  Stats stats() const;

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

 private:
  friend class SessionManager;
  Session(SessionManager* mgr, uint64_t id, std::string label,
          uint64_t pinned_seq, int epoch_slot);

  /// Guards the routing resolution + data read + timeline insert of one
  /// operation; also the close/drain accounting.
  class OpGuard;

  SessionManager* mgr_;
  uint64_t id_;
  std::string label_;
  uint64_t pinned_seq_;
  int epoch_slot_;

  std::atomic<bool> closing_{false};
  std::atomic<uint64_t> in_flight_{0};

  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> live_reads_{0};
  std::atomic<uint64_t> snapshot_reads_{0};
  std::atomic<uint64_t> rows_{0};
  std::atomic<uint64_t> pages_{0};
  std::atomic<uint64_t> flushes_{0};

  /// Per-session metric scope (DESIGN.md §10): each bump site increments
  /// the session atomic, the per-label instrument and the manager's
  /// global "sessions.*" mirror in the same statement — that is the
  /// attribution invariant the stress test asserts (sum over sessions of
  /// "session.<label>.x" == "sessions.x", bit-exact).
  void BumpQueries();
  void BumpCacheHits();
  void BumpRows(uint64_t rows);
  void RecordQueryMs(double ms);

  // Resolved once at open (registration takes the registry mutex);
  // bumped lock-free afterwards.
  Counter* m_queries_ = nullptr;
  Counter* m_cache_hits_ = nullptr;
  Counter* m_rows_ = nullptr;
  Counter* m_pages_ = nullptr;
  Counter* m_flushes_ = nullptr;
  LatencyHistogram* m_query_ms_ = nullptr;
};

/// RAII write-side bracket of the capture -> block -> grace -> mutate ->
/// publish protocol. The Dbms mutation paths construct one around every
/// in-place change to a view (update, rollback, derived-column write,
/// reorganize, drop); with no SessionManager attached the scope is inert
/// and costs two branches.
///
/// Lifecycle:
///   MutationScope scope(dbms.sessions(), Kind::kMutate, name, live);
///   if (!scope.ok()) return scope.status();   // capture failed: abort
///   ... mutate the live view in place ...
///   scope.Publish(live);                      // or let ~MutationScope
///
/// Begin serializes writers (one mutation in flight at a time), captures
/// immutable pre-images of every column, blocks the live route, and runs
/// an epoch grace period so no pinned reader is still on the live bytes.
/// Publish bumps the commit seq, re-opens the live route and closes the
/// summary timeline's open windows. The destructor auto-publishes with
/// the begin-time live pointer (kDrop auto-publishes the drop), so early
/// returns in a mutation body still restore reader routing.
///
/// Self-deadlock hazard: scopes do not nest (writer serialization is a
/// flag, not a recursive lock). A mutation that calls another mutating
/// entry point must Publish first — see AddDerivedColumn.
class MutationScope {
 public:
  enum class Kind : uint8_t {
    kMutate = 0,  // in-place change to an existing view
    kCreate = 1,  // new view materialization (no pre-image to capture)
    kDrop = 2,    // view removal
  };

  /// `mgr` may be nullptr (sessions disabled): the scope is inert.
  /// `live` is the view about to be mutated (nullptr for kCreate).
  MutationScope(SessionManager* mgr, Kind kind, std::string view,
                ConcreteView* live);
  ~MutationScope();

  MutationScope(const MutationScope&) = delete;
  MutationScope& operator=(const MutationScope&) = delete;

  /// False when the pre-image capture failed; the caller must abort the
  /// mutation (reader routing is untouched in that case).
  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Publishes the post-mutation state. `live` may differ from the
  /// begin-time pointer (ReorganizeView swaps the ConcreteView).
  void Publish(ConcreteView* live);
  /// Publishes a drop: later pins see NOT_FOUND, earlier pins keep
  /// reading their captured pre-images.
  void PublishDropped();

 private:
  SessionManager* mgr_;
  Kind kind_;
  std::string view_;
  ConcreteView* begin_live_;
  Status status_;
  bool armed_ = false;      // a Begin actually ran and must be ended
  bool published_ = false;
};

/// Owner of the session layer: admission control, the MVCC routing
/// tables, the commit-seq clock and the epoch domain (DESIGN.md §15).
/// Created via StatisticalDbms::EnableSessions; one per Dbms.
///
/// Lock ordering (extends the §13 capability map): admission_mu_ is a
/// leaf taken by Open/Close and the writer-serialization bracket; the
/// SnapshotRegistry / SummaryTimeline SharedMutexes are leaves of the
/// read path. No session-layer lock is ever held across view I/O, the
/// epoch grace period, or a Dbms call — so no lock the write path holds
/// across its mutation is ever awaited by a pinned reader.
class SessionManager {
 public:
  SessionManager(StatisticalDbms* dbms, SessionConfig config);
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Opens a session pinned at the current commit seq. Applies the
  /// admission policy when the session count is at max_sessions:
  /// RESOURCE_EXHAUSTED (kReject) or a bounded wait then UNAVAILABLE
  /// (kQueue). The returned handle stays owned by the manager; it is
  /// valid until Close.
  Result<Session*> Open(std::string label);

  /// Closes `session` and reclaims every snapshot only it could reach.
  /// Blocks until the session's in-flight operations drain. The handle
  /// is retired, not freed (it lives until the manager is destroyed), so
  /// a racing reader that uses it after close gets FAILED_PRECONDITION
  /// instead of undefined behavior.
  Status Close(Session* session);

  /// Closes every open session (shutdown path).
  void CloseAll();

  /// Registers an already-materialized view with the routing table
  /// (EnableSessions bootstrap; CreateView under sessions publishes
  /// through MutationScope instead).
  void BootstrapView(const std::string& view, ConcreteView* live);

  size_t open_sessions() const;
  uint64_t current_seq() const {
    return commit_seq_.load(std::memory_order_seq_cst);
  }

  struct Stats {
    uint64_t opened = 0;
    uint64_t closed = 0;
    uint64_t rejected = 0;        // kReject overflow
    uint64_t queue_timeouts = 0;  // kQueue overflow that timed out
    uint64_t mutations = 0;       // published mutation scopes
    uint64_t captures = 0;        // column pre-images captured
  };
  Stats stats() const;

  const SessionConfig& config() const { return config_; }

  /// Observability / test hooks into the MVCC state.
  size_t RetiredSnapshots() const { return registry_.RetiredCount(); }
  size_t TimelineEntries() const { return timeline_.EntryCount(); }

 private:
  friend class Session;
  friend class MutationScope;

  /// Writer-side bracket (called by MutationScope). Begin serializes
  /// against other writers and session opens, captures pre-images of
  /// every column of `view` (skipped when no session is open — opens
  /// wait out in-flight mutations, so nobody can pin mid-capture-skip),
  /// blocks the live route and synchronizes the epoch domain.
  Status BeginMutation(MutationScope::Kind kind, const std::string& view,
                       ConcreteView* live);
  /// Publish step: bumps the commit seq, re-opens (or drops) the route,
  /// closes the timeline's open windows, releases writer serialization.
  void EndMutation(const std::string& view, ConcreteView* live,
                   bool dropped);
  /// Begin failed after acquiring writer serialization: release it
  /// without publishing (reader routing untouched).
  void AbortMutation();

  /// Smallest pinned seq among open sessions, or current_seq() + 1 when
  /// none (then every retired snapshot is unreachable).
  uint64_t MinPinnedSeqLocked() const STATDB_REQUIRES(admission_mu_);

  StatisticalDbms* dbms_;
  SessionConfig config_;

  EpochManager epochs_;
  SnapshotRegistry registry_;
  SummaryTimeline timeline_;

  /// The MVCC clock. Starts at 1; every published mutation advances it.
  /// Monotone across Rollback — which reuses *view version* numbers and
  /// is exactly why pinned lookups must never key on view versions
  /// (SummaryDatabase::ClampVersions rewrites that head cache).
  std::atomic<uint64_t> commit_seq_{1};

  mutable Mutex admission_mu_;
  CondVar admission_cv_;
  bool mutation_in_flight_ STATDB_GUARDED_BY(admission_mu_) = false;
  uint64_t next_id_ STATDB_GUARDED_BY(admission_mu_) = 1;
  std::vector<bool> slot_used_ STATDB_GUARDED_BY(admission_mu_);
  std::map<uint64_t, std::unique_ptr<Session>> sessions_
      STATDB_GUARDED_BY(admission_mu_);
  /// Closed sessions, kept alive so stale handles fail closed (their
  /// closing_ flag is permanently set; they never re-enter the epoch
  /// domain). Freed when the manager is destroyed.
  std::vector<std::unique_ptr<Session>> retired_sessions_
      STATDB_GUARDED_BY(admission_mu_);

  /// Global mirrors of the per-session scopes ("sessions.*"), resolved
  /// once at construction and bumped at the exact sites that bump the
  /// per-session instruments — never independently, or the attribution
  /// invariant breaks.
  Counter* g_queries_ = nullptr;
  Counter* g_cache_hits_ = nullptr;
  Counter* g_rows_ = nullptr;
  Counter* g_pages_ = nullptr;
  Counter* g_flushes_ = nullptr;
  LatencyHistogram* g_query_ms_ = nullptr;

  uint64_t opened_ STATDB_GUARDED_BY(admission_mu_) = 0;
  uint64_t closed_ STATDB_GUARDED_BY(admission_mu_) = 0;
  uint64_t rejected_ STATDB_GUARDED_BY(admission_mu_) = 0;
  uint64_t queue_timeouts_ STATDB_GUARDED_BY(admission_mu_) = 0;
  std::atomic<uint64_t> mutations_{0};
  std::atomic<uint64_t> captures_{0};
};

}  // namespace statdb::session

#endif  // STATDB_SESSION_SESSION_H_
