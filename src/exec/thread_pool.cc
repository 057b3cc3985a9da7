#include "exec/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <string>
#include <utility>

#include "causal/trace_context.h"

namespace statdb {

namespace {

/// Runs `f`, converting a thrown exception into INTERNAL: a worker must
/// never unwind into the pool machinery (std::packaged_task would stash
/// the exception in the future, but callers here consume plain Status
/// values).
template <typename F>
Status RunCapturing(const F& f) {
  try {
    return f();
  } catch (const std::exception& e) {
    return InternalError(std::string("worker task threw: ") + e.what());
  } catch (...) {
    return InternalError("worker task threw a non-standard exception");
  }
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  Shutdown();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Shutdown() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::packaged_task<Status()> task;
    {
      MutexLock lock(mu_);
      // Explicit wait loop (not a predicate lambda): the thread safety
      // analysis verifies guarded accesses in this scope but cannot see
      // into a closure.
      while (!shutdown_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) {
        // Shutdown with a drained queue. Submit rejects work once
        // shutdown_ is set, so nothing can land behind this check — a
        // task here would be one no worker will ever run.
        assert(shutdown_ && queue_.empty());
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::Account(double ms, ThreadPoolStats* ledger) {
  LatencyHistogram* sink;
  {
    MutexLock lock(mu_);
    ++stats_.executed;
    stats_.total_task_ms += ms;
    if (ledger != nullptr) {
      ++ledger->executed;
      ledger->total_task_ms += ms;
    }
    sink = task_latency_;
  }
  if (sink != nullptr) sink->Record(ms);
}

std::future<Status> ThreadPool::Submit(std::function<Status()> task,
                                       ThreadPoolStats* ledger) {
  // The task runs under the submitter's trace context and is accounted
  // before it returns, i.e. before packaged_task resolves the future.
  std::packaged_task<Status()> wrapped(
      [this, task = std::move(task), ledger,
       ctx = causal::Current()]() -> Status {
        causal::ScopedTraceContext scope(ctx);
        const auto start = std::chrono::steady_clock::now();
        Status s = RunCapturing(task);
        Account(std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count(),
                ledger);
        return s;
      });
  std::future<Status> fut = wrapped.get_future();
  {
    MutexLock lock(mu_);
    if (shutdown_) {
      // The workers may already have observed shutdown_ and exited; a
      // task enqueued now would never run and its future would hang (or
      // throw broken_promise once the queue is destroyed). Refuse with a
      // future that is ready immediately instead.
      ++stats_.rejected;
      if (ledger != nullptr) ++ledger->rejected;
      std::promise<Status> refused;
      refused.set_value(FailedPreconditionError(
          "ThreadPool::Submit after Shutdown: task rejected"));
      return refused.get_future();
    }
    queue_.push_back(std::move(wrapped));
    const uint64_t depth = queue_.size();
    ++stats_.submitted;
    stats_.max_queue_depth = std::max(stats_.max_queue_depth, depth);
    if (ledger != nullptr) {
      ++ledger->submitted;
      ledger->max_queue_depth = std::max(ledger->max_queue_depth, depth);
    }
  }
  cv_.NotifyOne();
  return fut;
}

Status ThreadPool::RunAll(std::vector<std::function<Status()>> tasks) {
  std::vector<std::future<Status>> futures;
  futures.reserve(tasks.size());
  for (std::function<Status()>& t : tasks) {
    futures.push_back(Submit(std::move(t)));
  }
  Status first = Status::OK();
  for (std::future<Status>& f : futures) {
    Status s = f.get();
    if (first.ok() && !s.ok()) first = s;
  }
  return first;
}

Status ForEachIndex(const PoolSlice& slice, size_t n,
                    const std::function<Status(size_t)>& task) {
  if (slice.pool == nullptr || n <= 1) {
    for (size_t i = 0; i < n; ++i) STATDB_RETURN_IF_ERROR(task(i));
    return Status::OK();
  }
  std::vector<Status> status(n);
  std::atomic<size_t> next{0};
  auto claim = [&]() -> Status {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      status[i] = RunCapturing([&] { return task(i); });
    }
    return Status::OK();
  };
  const size_t claimers = std::min(std::max<size_t>(slice.workers, 1), n);
  std::vector<std::future<Status>> futures;
  futures.reserve(claimers);
  for (size_t c = 0; c < claimers; ++c) {
    futures.push_back(slice.pool->Submit(claim, slice.ledger));
  }
  Status refused = Status::OK();
  for (std::future<Status>& f : futures) {
    Status s = f.get();
    if (refused.ok() && !s.ok()) refused = s;
  }
  STATDB_RETURN_IF_ERROR(refused);
  for (const Status& s : status) STATDB_RETURN_IF_ERROR(s);
  return Status::OK();
}

ThreadPoolStats ThreadPool::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void ThreadPool::set_task_latency_sink(LatencyHistogram* sink) {
  MutexLock lock(mu_);
  task_latency_ = sink;
}

}  // namespace statdb
