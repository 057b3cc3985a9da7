#ifndef STATDB_CAUSAL_TRACE_CONTEXT_H_
#define STATDB_CAUSAL_TRACE_CONTEXT_H_

#include <atomic>
#include <cstdint>

namespace statdb {
namespace causal {

/// statdb::causal — end-to-end causal tracing (DESIGN.md §10).
///
/// A TraceContext identifies one top-level operation: every public entry
/// point (Query*/Update/Rollback/Recover, session ops) mints one, and it
/// rides down through the subsystems the operation touches. The trace_id
/// is the join key across the four telemetry streams — QueryTrace spans,
/// FlightRecorder events, delta-flush records and WAL commits — so one
/// id reassembles everything the system did on an operation's behalf.
///
/// Propagation has two legs:
///   explicit  core/delta/session call sites pass the context (or its
///             trace_id) to the flight recorder / trace directly — lint
///             rule R8 enforces that no Record() in those dirs is bare;
///   ambient   ScopedTraceContext installs the context in a thread_local
///             slot, so layers below the signature boundary (BufferPool
///             retries, device faults, WAL appends) stamp the minting
///             thread's current id with zero signature churn.
///
/// Cost discipline: minting is one relaxed fetch_add; Current() is one
/// thread_local read. A new thread never inherits the caller's slot —
/// events it records carry trace 0 ("unattributed") unless something
/// installs a context there. The exec pool does: every task runs under
/// the context its submitter had (ThreadPool::Submit), so a parallel
/// scan's pool misses, I/O retries and faults join the query's trace.
struct TraceContext {
  /// Process-unique, never 0 for a minted context. 0 means "no context"
  /// everywhere (flight events, spans, exports).
  uint64_t trace_id = 0;
  /// Owning session id, or 0 for the head (non-session) paths.
  uint64_t session_id = 0;
  /// Per-origin operation ordinal (the minting counter's value), letting
  /// an exporter order one session's operations without timestamps.
  uint64_t query_seq = 0;

  bool valid() const { return trace_id != 0; }
};

/// Mints a fresh process-unique context. `session_id` 0 = head path.
TraceContext Mint(uint64_t session_id = 0);

/// The context installed on this thread, or an all-zero context when no
/// ScopedTraceContext is live (e.g. a thread nothing installed one on).
const TraceContext& Current();

/// Shorthand for Current().trace_id — the flight recorder's stamp.
uint64_t CurrentTraceId();

/// RAII installer: makes `ctx` the thread's current context for the
/// scope's lifetime and restores the previous one on exit, so nested
/// entry points (a query issued from inside a recovery callback, the
/// shell driving the Dbms) attribute correctly.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

  const TraceContext& ctx() const;

 private:
  TraceContext installed_;
  TraceContext saved_;
};

}  // namespace causal
}  // namespace statdb

#endif  // STATDB_CAUSAL_TRACE_CONTEXT_H_
