#ifndef STATDB_EXEC_THREAD_POOL_H_
#define STATDB_EXEC_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "obs/metrics.h"

namespace statdb {

/// Work-queue behavior counters, in one shape for two scopes: a pool's
/// lifetime totals (ThreadPool::stats()) and one submitter's ledger
/// (Submit's `ledger`), which is how a batch on a shared pool reads
/// exactly its own share.
struct ThreadPoolStats {
  uint64_t submitted = 0;        // tasks accepted into the queue
  uint64_t executed = 0;         // tasks that ran to completion
  uint64_t rejected = 0;         // submissions refused after Shutdown
  uint64_t max_queue_depth = 0;  // high-water mark of queued tasks
  double total_task_ms = 0;      // wall time spent inside tasks
};

/// A fixed-size worker pool with a FIFO work queue.
///
/// Tasks are `Status()` callables; a task that throws is captured and
/// surfaced as an INTERNAL Status instead of terminating the process, so
/// the Status-based error discipline of the rest of the system holds
/// across thread boundaries. Every task runs under the causal
/// TraceContext of the thread that submitted it, so what it records
/// (I/O retries, pool misses, faults) joins the submitter's trace.
/// Destruction is graceful: every task already queued still runs before
/// the workers join.
///
/// The pool itself is thread-safe (any thread may Submit), but it is not
/// re-entrant: a task must never wait on the pool — on the future of
/// another task, or through ForEachIndex — or the pool can deadlock with
/// all workers waiting.
///
/// Accounting: a task's `executed` and `total_task_ms` bumps (in stats()
/// and in its ledger) land before its future resolves, so a submitter
/// that has joined its futures reads exact figures without draining the
/// pool.
///
/// Shutdown discipline: once Shutdown() runs (the destructor calls it),
/// Submit refuses new work with an immediately-ready FAILED_PRECONDITION
/// future instead of enqueueing a task no worker will ever run — a task
/// slipped in after the workers observed shutdown would leave its
/// caller's future to hang or throw broken_promise.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Shutdown() + join every worker (the queue drains first).
  ~ThreadPool();

  size_t size() const { return workers_.size(); }

  /// Stops accepting work. Tasks already queued still run; workers exit
  /// once the queue is drained. Idempotent; does not join (the destructor
  /// does). Exposed so owners can fence the pool ahead of destruction and
  /// so tests can pin down the Submit-after-shutdown contract.
  void Shutdown();

  /// Enqueues one task; the future carries its Status (or the Status a
  /// thrown exception was converted to). After Shutdown the task is NOT
  /// enqueued and the returned future is already ready with
  /// FAILED_PRECONDITION. A non-null `ledger` is charged like stats():
  /// submitted (or rejected) now, executed and task time before the
  /// future resolves; bumps land under the pool's lock, and the ledger
  /// must outlive the future.
  std::future<Status> Submit(std::function<Status()> task,
                             ThreadPoolStats* ledger = nullptr);

  /// Submits every task, waits for all of them, and returns the first
  /// non-OK Status in task order (OK if all succeeded). Unlike a bare
  /// loop over Submit, this never abandons a future: every task finishes
  /// before RunAll returns, even on error.
  Status RunAll(std::vector<std::function<Status()>> tasks);

  /// Lifetime counter snapshot. Exact for every task whose future has
  /// resolved.
  ThreadPoolStats stats() const;

  /// Optional per-task latency sink: every completed task records its
  /// execution wall time here. The histogram's atomics make this safe
  /// from all workers; the pointer must outlive the pool. nullptr
  /// detaches.
  void set_task_latency_sink(LatencyHistogram* sink);

 private:
  void WorkerLoop();
  /// Charges one finished task to stats() and `ledger`.
  void Account(double ms, ThreadPoolStats* ledger);

  std::vector<std::thread> workers_;
  mutable Mutex mu_;
  CondVar cv_;
  std::deque<std::packaged_task<Status()>> queue_ STATDB_GUARDED_BY(mu_);
  bool shutdown_ STATDB_GUARDED_BY(mu_) = false;
  ThreadPoolStats stats_ STATDB_GUARDED_BY(mu_);
  LatencyHistogram* task_latency_ STATDB_GUARDED_BY(mu_) = nullptr;
};

/// One submitter's share of a pool: at most `workers` of its tasks run
/// at once, and `ledger` (optional) is charged for them. A null pool
/// runs everything inline on the caller.
struct PoolSlice {
  PoolSlice() = default;
  /// The whole pool, unledgered (null: inline).
  PoolSlice(ThreadPool* p)  // NOLINT(google-explicit-constructor)
      : pool(p), workers(p == nullptr ? 1 : p->size()) {}
  PoolSlice(ThreadPool* p, size_t w, ThreadPoolStats* l)
      : pool(p), workers(w), ledger(l) {}

  ThreadPool* pool = nullptr;
  size_t workers = 1;
  ThreadPoolStats* ledger = nullptr;
};

/// Runs `task(i)` for every i in [0, n): on the slice's pool when there
/// is one and more than one task, else inline in order. On the pool, at
/// most `slice.workers` claimer tasks pull the indices in ascending
/// order, so however many indices there are, the slice never holds more
/// than its workers. A task that throws fails its index with INTERNAL.
/// Returns the first error in index order (a claimer the pool refused
/// fails the call first); every index runs before it returns.
Status ForEachIndex(const PoolSlice& slice, size_t n,
                    const std::function<Status(size_t)>& task);

}  // namespace statdb

#endif  // STATDB_EXEC_THREAD_POOL_H_
