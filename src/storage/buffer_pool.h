#ifndef STATDB_STORAGE_BUFFER_POOL_H_
#define STATDB_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "storage/device.h"
#include "storage/page.h"

namespace statdb {

class ReadPin;

/// Cache-effectiveness counters for one buffer pool.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t flushes = 0;
  /// Device I/Os re-issued after a transient (UNAVAILABLE) failure.
  uint64_t retries = 0;
  /// Simulated backoff time spent between retry attempts (the simulator
  /// never sleeps for real; this feeds the cost accounting like
  /// IoStats::simulated_ms does).
  double backoff_ms = 0;
  /// Fetched pages whose stored checksum did not match their data —
  /// surfaced to the caller as DATA_LOSS.
  uint64_t checksum_failures = 0;
  /// Frames allocated past nominal capacity because no-steal mode forbade
  /// evicting the only (dirty) victims. Shrinks back after FlushAll.
  uint64_t overflow_frames = 0;
  /// Lock-free pins served by FetchReadOnly without touching the pool
  /// mutex. stats() folds these into `hits` as well, so the invariant
  /// hits + misses == total fetches (and HitRate()) survives the fast
  /// path; this field reports the fast share separately.
  uint64_t fast_hits = 0;

  double HitRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : double(hits) / double(total);
  }
};

/// Fixed-capacity LRU page cache in front of one SimulatedDevice.
///
/// Pages are accessed through pin/unpin: FetchPage pins a frame (it cannot
/// be evicted while pinned), UnpinPage releases it and records whether the
/// caller dirtied it. Statistical scans touch every page of a column once,
/// so pool capacity relative to file size is the lever the paper's caching
/// arguments turn on.
///
/// Durability hooks:
///   - Every write-back stamps a CRC-32C of the data area into the page
///     header; every fetch miss verifies it (when stamped) and returns
///     DATA_LOSS on mismatch instead of serving corrupt bytes.
///   - Transient device errors (UNAVAILABLE) are retried a bounded number
///     of times with exponential (simulated) backoff before surfacing.
///   - In no-steal mode, dirty frames are never evicted to the device;
///     when every eviction candidate is dirty the pool grows overflow
///     frames past capacity instead, and shrinks back after FlushAll.
///     This is what makes redo-only logging sound: no uncommitted page
///     image can reach the platter early.
///
/// Threading rules (the parallel scan layer in src/exec depends on them):
///   - Every public method is internally synchronized; worker threads may
///     pin, unpin and flush concurrently. The owning device is accessed
///     only under this pool's mutex, so its IoStats counters need no
///     locking of their own.
///   - A pinned Page* may be *read* without the lock (a pinned frame is
///     never evicted or relocated — frames live in a deque precisely so
///     overflow growth does not move existing frames). Concurrent
///     *writers* of one page must coordinate among themselves; the
///     read-only scans in src/exec never write.
///   - stats() returns a snapshot by value; read it from a quiescent pool
///     (after the join barrier) for exact figures. CheckAccess-based
///     audits must also run quiescent.
///
/// Lock-free read fast path (statdb::session, DESIGN.md §15):
///   - FetchReadOnly pins a resident fast-published page with two atomic
///     ops and zero mutex acquisitions; it falls back to the latched
///     FetchPage on a miss. This is what takes mu_ off the snapshot
///     readers' fetch path while writers churn the pool.
///   - Only frames_[0..capacity_) are ever fast-published: overflow
///     frames can be destroyed by ShrinkLocked, while the first
///     `capacity_` deque slots are stable for the pool's lifetime, so a
///     fast reader's Frame* stays valid across any delay.
///   - Eviction retires a victim from the fast path and *skips* it (never
///     waits) when a fast pin is in flight — a fast-pin holder may itself
///     be blocked on mu_ fetching its next page, so waiting under mu_
///     could deadlock. See the Dekker-style pairing in TryFastPin /
///     RetireFast.
///   - Coordination of byte-level writers vs lock-free readers of the
///     SAME page is the caller's contract, exactly as it already is for
///     latched pins (second rule above): statdb::session excludes that
///     overlap with its epoch grace periods.
///   - Reset() and DiscardAll() destroy frames and therefore additionally
///     require that no fast pins are in flight (both already demand a
///     quiescent pool — crash simulation / shutdown paths).
class BufferPool {
 public:
  BufferPool(SimulatedDevice* device, size_t capacity_pages);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Allocates a brand-new zeroed page on the device and pins it.
  Result<std::pair<PageId, Page*>> NewPage();

  /// Pins page `id`, reading it from the device on a miss. DATA_LOSS if
  /// the stored page fails checksum verification.
  Result<Page*> FetchPage(PageId id);

  /// Lock-free read-only pin: succeeds iff `id` is resident and
  /// fast-published (see class comment). Returns an invalid ReadPin on a
  /// fast miss — no I/O, no mutex. Never fails with a Status.
  ReadPin TryFastPin(PageId id);

  /// Read-only fetch for snapshot readers: TryFastPin when the page is
  /// resident, latched FetchPage (counted as hit or miss as usual) when
  /// not. The returned pin can never mark the page dirty.
  Result<ReadPin> FetchReadOnly(PageId id);

  /// Releases a pin. `dirty` marks the frame for write-back on eviction.
  Status UnpinPage(PageId id, bool dirty);

  /// Writes back every dirty frame (pinned or not), then releases any
  /// overflow frames no-steal mode grew.
  Status FlushAll();

  /// Drops all unpinned frames after flushing them; errors if pins remain.
  Status Reset();

  /// Crash simulation: drops every frame *without* flushing, losing all
  /// buffered-but-unwritten work, exactly as a power cut would. Pins are
  /// ignored — the process holding them is "gone".
  void DiscardAll();

  /// Enables/disables no-steal eviction (see class comment). Turning it
  /// off does not flush; pending dirty frames simply become evictable.
  void set_no_steal(bool on);
  bool no_steal() const;

  /// Commit support: stamps `lsn` (and the checksum) into the header of
  /// every dirty frame and returns copies of those pages sorted by id —
  /// the byte-exact images a redo-log record must carry so replay equals
  /// the in-place writes FlushAll() will perform next.
  std::vector<std::pair<PageId, Page>> CollectDirty(uint64_t lsn);

  BufferPoolStats stats() const {
    MutexLock lock(mu_);
    BufferPoolStats s = stats_;
    s.fast_hits = fast_hits_.load(std::memory_order_relaxed);
    s.hits += s.fast_hits;
    return s;
  }
  void ResetStats() {
    MutexLock lock(mu_);
    stats_ = BufferPoolStats{};
    fast_hits_.store(0, std::memory_order_relaxed);
  }
  SimulatedDevice* device() { return device_; }
  /// The device's page count, read under the lock NewPage grows it with.
  uint64_t device_page_count() const {
    MutexLock lock(mu_);
    return device_->page_count();
  }
  size_t capacity() const { return capacity_; }

  /// Attaches (or detaches, with nullptr) the flight recorder; retry
  /// attempts and checksum DATA_LOSS verdicts become black-box events.
  /// Atomic so it can be flipped while worker threads run I/O.
  void set_flight_recorder(FlightRecorder* recorder) {
    flight_.store(recorder, std::memory_order_release);
  }

 private:
  /// Read-only introspection for the structural auditor (src/check).
  friend class CheckAccess;

  struct Frame {
    PageId id = kInvalidPageId;
    Page page;
    int pin_count = 0;
    bool dirty = false;
    // Position in lru_ when pin_count == 0.
    std::list<size_t>::iterator lru_pos;
    bool in_lru = false;
    // --- lock-free fast path (only meaningful for index < capacity_) ---
    // Identity + eligibility checked by TryFastPin AFTER it increments
    // fast_pins; RetireFast runs the mirror sequence (clear fast_ok, then
    // read fast_pins). All seq_cst, so in the single total order either
    // the reader observes the retire and backs out, or the retirer
    // observes the reader's pin and leaves the frame alone.
    std::atomic<PageId> fast_id{kInvalidPageId};
    std::atomic<bool> fast_ok{false};
    std::atomic<uint32_t> fast_pins{0};
  };

  /// Finds a frame for a new resident page, evicting an LRU victim if the
  /// pool is full. Returns RESOURCE_EXHAUSTED when everything is pinned.
  Result<size_t> GetFreeFrame() STATDB_REQUIRES(mu_);

  /// Offers `frames_[idx]` (now holding page `id`) to the lock-free read
  /// path. No-op for overflow frames — see the class comment.
  void PublishFast(Frame& f, size_t idx, PageId id) STATDB_REQUIRES(mu_);

  /// Withdraws a frame from the lock-free path. Returns true when the
  /// frame is quiescent and may be repurposed; false when a fast pin is
  /// in flight, in which case the frame has been re-published and the
  /// caller must pick a different victim. Never waits (see class
  /// comment: a fast-pin holder may itself be blocked on mu_).
  bool RetireFast(Frame& f) STATDB_REQUIRES(mu_);

  size_t FastSlot(PageId id) const {
    // Fibonacci multiplicative hash into the power-of-two slot array.
    return size_t((id * 0x9E3779B97F4A7C15ull) >> 40) &
           (fast_map_.size() - 1);
  }

  /// Stamps the checksum and writes one frame back with retry; clears its
  /// dirty bit on success.
  Status WriteBack(Frame& f) STATDB_REQUIRES(mu_);

  /// Bounded-retry device I/O; transient UNAVAILABLE errors are retried
  /// with exponential simulated backoff.
  Status ReadWithRetry(PageId id, Page* out) STATDB_REQUIRES(mu_);
  Status WriteWithRetry(PageId id, const Page& page) STATDB_REQUIRES(mu_);

  /// FlushAll body.
  Status FlushAllLocked() STATDB_REQUIRES(mu_);

  /// Releases clean trailing overflow frames.
  void ShrinkLocked() STATDB_REQUIRES(mu_);

  /// Serializes all pool state, the stats counters, and every access to
  /// the underlying device.
  mutable Mutex mu_;

  SimulatedDevice* device_;
  size_t capacity_;
  // Deque, not vector: overflow growth must not relocate frames that
  // concurrent readers hold pinned Page* into.
  std::deque<Frame> frames_ STATDB_GUARDED_BY(mu_);
  std::vector<size_t> free_frames_ STATDB_GUARDED_BY(mu_);
  std::unordered_map<PageId, size_t> page_table_ STATDB_GUARDED_BY(mu_);
  std::list<size_t> lru_ STATDB_GUARDED_BY(mu_);  // front = least recently used
  bool no_steal_ STATDB_GUARDED_BY(mu_) = false;
  BufferPoolStats stats_ STATDB_GUARDED_BY(mu_);
  std::atomic<FlightRecorder*> flight_{nullptr};

  // Fixed power-of-two hash of fast-published frames, sized once in the
  // constructor (never rehashed — readers index it without mu_). Slots
  // are overwritten on collision; the loser simply falls back to the
  // latched path. A stale pointer is harmless: it always targets one of
  // the stable first `capacity_` frames and TryFastPin re-validates
  // identity against the frame itself.
  std::vector<std::atomic<Frame*>> fast_map_;
  std::atomic<uint64_t> fast_hits_{0};

  friend class ReadPin;
};

/// RAII read-only pin from BufferPool::FetchReadOnly / TryFastPin.
///
/// Holds either a lock-free fast pin (released with a single atomic
/// decrement, no mutex) or an ordinary latched pin (released through
/// UnpinPage, never dirty). Snapshot readers hold these; they can never
/// mark a page dirty, which is what makes the fast release sound.
class ReadPin {
 public:
  ReadPin() = default;
  ~ReadPin() { Release(); }

  ReadPin(ReadPin&& o) noexcept { *this = std::move(o); }
  ReadPin& operator=(ReadPin&& o) noexcept {
    if (this != &o) {
      Release();
      pool_ = o.pool_;
      id_ = o.id_;
      page_ = o.page_;
      fast_pins_ = o.fast_pins_;
      o.pool_ = nullptr;
      o.page_ = nullptr;
      o.fast_pins_ = nullptr;
    }
    return *this;
  }
  ReadPin(const ReadPin&) = delete;
  ReadPin& operator=(const ReadPin&) = delete;

  const Page* get() const { return page_; }
  PageId id() const { return id_; }
  bool valid() const { return page_ != nullptr; }
  /// True when this pin was served by the lock-free path (stats parity
  /// with BufferPoolStats::fast_hits; tests assert on it).
  bool fast() const { return fast_pins_ != nullptr; }

  void Release() {
    if (fast_pins_ != nullptr) {
      fast_pins_->fetch_sub(1, std::memory_order_seq_cst);
    } else if (pool_ != nullptr && page_ != nullptr) {
      // Unpin of a held pin cannot fail; ignore the status.
      (void)pool_->UnpinPage(id_, /*dirty=*/false);
    }
    pool_ = nullptr;
    page_ = nullptr;
    fast_pins_ = nullptr;
  }

 private:
  friend class BufferPool;
  ReadPin(BufferPool* pool, PageId id, const Page* page,
          std::atomic<uint32_t>* fast_pins)
      : pool_(pool), id_(id), page_(page), fast_pins_(fast_pins) {}

  BufferPool* pool_ = nullptr;
  PageId id_ = kInvalidPageId;
  const Page* page_ = nullptr;
  std::atomic<uint32_t>* fast_pins_ = nullptr;
};

/// RAII pin guard: unpins on destruction with the recorded dirty flag.
class PinnedPage {
 public:
  PinnedPage() = default;
  PinnedPage(BufferPool* pool, PageId id, Page* page)
      : pool_(pool), id_(id), page_(page) {}
  ~PinnedPage() { Release(); }

  PinnedPage(PinnedPage&& o) noexcept { *this = std::move(o); }
  PinnedPage& operator=(PinnedPage&& o) noexcept {
    if (this != &o) {
      Release();
      pool_ = o.pool_;
      id_ = o.id_;
      page_ = o.page_;
      dirty_ = o.dirty_;
      o.pool_ = nullptr;
      o.page_ = nullptr;
    }
    return *this;
  }
  PinnedPage(const PinnedPage&) = delete;
  PinnedPage& operator=(const PinnedPage&) = delete;

  Page* get() { return page_; }
  const Page* get() const { return page_; }
  PageId id() const { return id_; }
  void MarkDirty() { dirty_ = true; }
  bool valid() const { return page_ != nullptr; }

  void Release() {
    if (pool_ != nullptr && page_ != nullptr) {
      // Unpin of a held pin cannot fail; ignore the status.
      (void)pool_->UnpinPage(id_, dirty_);
    }
    pool_ = nullptr;
    page_ = nullptr;
  }

 private:
  BufferPool* pool_ = nullptr;
  PageId id_ = kInvalidPageId;
  Page* page_ = nullptr;
  bool dirty_ = false;
};

}  // namespace statdb

#endif  // STATDB_STORAGE_BUFFER_POOL_H_
