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

/// Work-queue behavior counters for one pool (the thread-pool section of
/// Dbms::DumpMetrics). Snapshot by value via ThreadPool::stats().
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
/// across thread boundaries. Destruction is graceful: every task already
/// queued still runs before the workers join.
///
/// The pool itself is thread-safe (any thread may Submit), but it is not
/// re-entrant: a task must not block on the future of another task
/// submitted to the same pool, or the pool can deadlock with all workers
/// waiting.
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

  /// Shutdown() plus joining every worker: on return the queue is fully
  /// drained and the final `executed`/`total_task_ms` bumps have landed,
  /// so stats() is exact. Idempotent, but only the owning thread may
  /// call it (it joins the worker threads).
  void Quiesce();

  /// Enqueues one task; the future carries its Status (or the Status a
  /// thrown exception was converted to). After Shutdown the task is NOT
  /// enqueued and the returned future is already ready with
  /// FAILED_PRECONDITION.
  std::future<Status> Submit(std::function<Status()> task);

  /// Submits every task, waits for all of them, and returns the first
  /// non-OK Status in task order (OK if all succeeded). Unlike a bare
  /// loop over Submit, this never abandons a future: every task finishes
  /// before RunAll returns, even on error.
  Status RunAll(std::vector<std::function<Status()>> tasks);

  /// Counter snapshot (exact once the pool is quiescent or destroyed).
  ThreadPoolStats stats() const;

  /// Optional per-task latency sink: every completed task records its
  /// execution wall time here. The histogram's atomics make this safe
  /// from all workers; the pointer must outlive the pool. nullptr
  /// detaches.
  void set_task_latency_sink(LatencyHistogram* sink);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  mutable Mutex mu_;
  CondVar cv_;
  std::deque<std::packaged_task<Status()>> queue_ STATDB_GUARDED_BY(mu_);
  bool shutdown_ STATDB_GUARDED_BY(mu_) = false;
  ThreadPoolStats stats_ STATDB_GUARDED_BY(mu_);
  LatencyHistogram* task_latency_ STATDB_GUARDED_BY(mu_) = nullptr;
};

/// Runs `task(i)` for every i in [0, n): on `pool` when there is one and
/// more than one task, else inline in order. Returns the first error in
/// index order; every task finishes first.
Status ForEachIndex(ThreadPool* pool, size_t n,
                    const std::function<Status(size_t)>& task);

}  // namespace statdb

#endif  // STATDB_EXEC_THREAD_POOL_H_
