// Concurrency stress tests for the parallel execution layer: the
// ThreadPool contract (Status capture, exception conversion, graceful
// drain) and the BufferPool's thread-safety guarantees — N workers
// hammering one pool with pin/unpin/flush must leave exact hit/miss
// accounting (hits + misses == fetches) and no pinned frames, which the
// PR-1 structural checker verifies post-hoc.

#include "exec/thread_pool.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "check/check.h"
#include "common/rng.h"
#include "exec/chunked_scanner.h"
#include "storage/column_file.h"
#include "tests/test_util.h"

namespace statdb {
namespace {

// --- ThreadPool contract ----------------------------------------------------

TEST(ThreadPoolTest, RunsSubmittedTasksOnWorkers) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> ran{0};
  std::vector<std::future<Status>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.Submit([&ran]() -> Status {
      ++ran;
      return Status::OK();
    }));
  }
  for (auto& f : futures) STATDB_EXPECT_OK(f.get());
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, ExceptionsBecomeInternalStatus) {
  ThreadPool pool(2);
  Status s = pool.Submit([]() -> Status {
                   throw std::runtime_error("boom");
                 })
                 .get();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.ToString().find("boom"), std::string::npos);
}

TEST(ThreadPoolTest, RunAllReturnsFirstErrorInTaskOrder) {
  ThreadPool pool(4);
  std::vector<std::function<Status()>> tasks;
  tasks.push_back([]() { return Status::OK(); });
  tasks.push_back([]() -> Status {
    // Finish late so a naive first-to-fail implementation would report
    // the third task's error instead.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return InvalidArgumentError("first error");
  });
  tasks.push_back([]() -> Status { return InternalError("second error"); });
  Status s = pool.RunAll(tasks);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("first error"), std::string::npos);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      (void)pool.Submit([&ran]() -> Status {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++ran;
        return Status::OK();
      });
    }
    // Destruction must wait for all 32, not abandon the queue.
  }
  EXPECT_EQ(ran.load(), 32);
}

// Regression test for the Submit-vs-destructor race: a submission landing
// after the workers observed shutdown used to be enqueued anyway, so no
// worker would ever run it — the caller's future.get() hung forever (or
// threw broken_promise at pool destruction). The fix rejects it with an
// immediately-ready FAILED_PRECONDITION future. Pre-fix, this test never
// returns from f.get().
TEST(ThreadPoolTest, SubmitAfterShutdownIsRejectedNotAbandoned) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  (void)pool.Submit([&ran]() -> Status {
    ++ran;
    return Status::OK();
  });
  pool.Shutdown();
  std::future<Status> f = pool.Submit([&ran]() -> Status {
    ++ran;
    return Status::OK();
  });
  // The future must already be ready — no worker will ever serve it.
  ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  Status s = f.get();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  ThreadPoolStats stats = pool.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.submitted, 1u);
}

TEST(ThreadPoolTest, ShutdownIsIdempotentAndDrainsQueuedWork) {
  std::atomic<int> ran{0};
  ThreadPool pool(2);
  std::vector<std::future<Status>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.Submit([&ran]() -> Status {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++ran;
      return Status::OK();
    }));
  }
  pool.Shutdown();
  pool.Shutdown();  // second fence must be harmless
  // Work accepted before the fence still runs to completion.
  for (auto& f : futures) STATDB_EXPECT_OK(f.get());
  EXPECT_EQ(ran.load(), 16);
  ThreadPoolStats stats = pool.stats();
  EXPECT_EQ(stats.submitted, 16u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(ThreadPoolTest, ConcurrentSubmittersRacingShutdownNeverHang) {
  // Hammer the race window itself: four submitter threads spin Submit
  // while the main thread shuts the pool down. Every future must resolve
  // — either OK (ran before the fence) or FAILED_PRECONDITION (rejected
  // after) — within the test timeout. Pre-fix, a task enqueued after the
  // workers exited left its future unresolved and this test hung.
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(2);
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> resolved{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&pool, &stop, &resolved]() {
        while (!stop.load(std::memory_order_relaxed)) {
          std::future<Status> f =
              pool.Submit([]() -> Status { return Status::OK(); });
          Status s = f.get();
          EXPECT_TRUE(s.ok() ||
                      s.code() == StatusCode::kFailedPrecondition);
          resolved.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    pool.Shutdown();
    stop.store(true);
    for (std::thread& t : submitters) t.join();
    ThreadPoolStats stats = pool.stats();
    EXPECT_EQ(stats.submitted + stats.rejected, resolved.load());
    // The executed counter lands just after each task's future resolves;
    // give the workers a moment to retire the last bump.
    for (int spin = 0; spin < 1000 && pool.stats().executed < stats.submitted;
         ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(pool.stats().executed, stats.submitted);
  }
}

// --- BufferPool under concurrent pin/unpin/flush ---------------------------

class BufferPoolStressTest : public ::testing::Test {
 protected:
  static constexpr size_t kPages = 256;
  static constexpr size_t kPoolFrames = 64;

  void SetUp() override {
    ts_ = std::make_unique<TestStorage>(kPoolFrames);
    // Each page carries its index at offset 0 so readers can verify they
    // see the right (fully written) page regardless of eviction traffic.
    for (uint64_t i = 0; i < kPages; ++i) {
      auto created = ts_->pool.NewPage();
      STATDB_ASSERT_OK(created);
      *created.value().second->As<uint64_t>(0) = i;
      ids_.push_back(created.value().first);
      STATDB_ASSERT_OK(ts_->pool.UnpinPage(created.value().first, true));
    }
    STATDB_ASSERT_OK(ts_->pool.FlushAll());
    ts_->pool.ResetStats();
  }

  std::unique_ptr<TestStorage> ts_;
  std::vector<PageId> ids_;
};

TEST_F(BufferPoolStressTest, ConcurrentFetchKeepsExactCountersAndNoLeaks) {
  constexpr size_t kWorkers = 8;
  constexpr uint64_t kItersPerWorker = 4000;
  ThreadPool pool(kWorkers);
  std::vector<std::function<Status()>> tasks;
  for (size_t w = 0; w < kWorkers; ++w) {
    tasks.push_back([this, w]() -> Status {
      Rng rng(9000 + w);
      for (uint64_t i = 0; i < kItersPerWorker; ++i) {
        PageId id = ids_[size_t(rng.UniformInt(0, kPages - 1))];
        STATDB_ASSIGN_OR_RETURN(Page * page, ts_->pool.FetchPage(id));
        uint64_t tag = *page->As<uint64_t>(0);
        STATDB_RETURN_IF_ERROR(ts_->pool.UnpinPage(id, /*dirty=*/false));
        if (tag != id) {
          return InternalError("page " + std::to_string(id) +
                               " carried tag " + std::to_string(tag));
        }
      }
      return Status::OK();
    });
  }
  STATDB_ASSERT_OK(pool.RunAll(tasks));

  // hits + misses must equal fetches exactly — a torn counter under
  // concurrency would break this accounting.
  BufferPoolStats stats = ts_->pool.stats();
  EXPECT_EQ(stats.hits + stats.misses, kWorkers * kItersPerWorker);
  // 256 pages through 64 frames guarantees both hits and misses occurred.
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);

  // No pin leaks: the structural checker expects a quiescent pool.
  CheckReport report;
  STATDB_ASSERT_OK(CheckBufferPool(ts_->pool, &report));
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(BufferPoolStressTest, FlushAllRacesReaders) {
  constexpr size_t kWorkers = 6;
  constexpr uint64_t kItersPerWorker = 1500;
  ThreadPool pool(kWorkers + 1);
  std::atomic<bool> done{false};
  std::vector<std::function<Status()>> tasks;
  for (size_t w = 0; w < kWorkers; ++w) {
    tasks.push_back([this, w]() -> Status {
      Rng rng(400 + w);
      for (uint64_t i = 0; i < kItersPerWorker; ++i) {
        PageId id = ids_[size_t(rng.UniformInt(0, kPages - 1))];
        STATDB_ASSIGN_OR_RETURN(Page * page, ts_->pool.FetchPage(id));
        if (*page->As<uint64_t>(0) != id) {
          return InternalError("torn page read");
        }
        STATDB_RETURN_IF_ERROR(ts_->pool.UnpinPage(id, false));
      }
      return Status::OK();
    });
  }
  tasks.push_back([this, &done]() -> Status {
    while (!done.load()) {
      STATDB_RETURN_IF_ERROR(ts_->pool.FlushAll());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::OK();
  });
  // RunAll would deadlock on the flusher; submit readers, then stop it.
  std::vector<std::future<Status>> futures;
  for (auto& t : tasks) futures.push_back(pool.Submit(t));
  for (size_t i = 0; i < kWorkers; ++i) STATDB_EXPECT_OK(futures[i].get());
  done.store(true);
  STATDB_EXPECT_OK(futures[kWorkers].get());

  CheckReport report;
  STATDB_ASSERT_OK(CheckBufferPool(ts_->pool, &report));
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// --- concurrent column scans ------------------------------------------------

TEST(ExecStressTest, ConcurrentScanRangesReproduceTheColumn) {
  TestStorage ts(32);  // much smaller than the column: real eviction churn
  ColumnFile file(&ts.pool);
  constexpr uint64_t kCells = 50000;
  uint64_t expected_sum = 0;
  for (uint64_t i = 0; i < kCells; ++i) {
    if (i % 17 == 0) {
      STATDB_ASSERT_OK(file.Append(std::nullopt));
    } else {
      STATDB_ASSERT_OK(file.Append(int64_t(i)));
      expected_sum += i;
    }
  }

  constexpr size_t kWorkers = 8;
  ThreadPool pool(kWorkers);
  std::vector<ScanChunk> chunks =
      SplitPageAligned(kCells, ColumnFile::kCellsPerPage, kWorkers * 4);
  std::vector<uint64_t> sums(chunks.size(), 0);
  std::vector<uint64_t> nulls(chunks.size(), 0);
  std::vector<std::function<Status()>> tasks;
  for (size_t c = 0; c < chunks.size(); ++c) {
    tasks.push_back([&file, &chunks, &sums, &nulls, c]() -> Status {
      return file.ScanPages(
          chunks[c].begin, chunks[c].end,
          [&sums, &nulls, c](uint64_t, const ColumnPageView& page) {
            for (size_t i = 0; i < page.size(); ++i) {
              if (page.valid(i)) {
                sums[c] += uint64_t(page.raw(i));
              } else {
                ++nulls[c];
              }
            }
            return Status::OK();
          });
    });
  }
  STATDB_ASSERT_OK(pool.RunAll(tasks));

  uint64_t total = 0, total_nulls = 0;
  for (size_t c = 0; c < chunks.size(); ++c) {
    total += sums[c];
    total_nulls += nulls[c];
  }
  EXPECT_EQ(total, expected_sum);
  EXPECT_EQ(total_nulls, (kCells + 16) / 17);

  CheckReport report;
  STATDB_ASSERT_OK(CheckBufferPool(ts.pool, &report));
  EXPECT_TRUE(report.ok()) << report.ToString();
}

}  // namespace
}  // namespace statdb
