#include "check/check.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <unordered_set>

#include "check/check_access.h"
#include "common/checksum.h"
#include "relational/schema.h"
#include "relational/table.h"
#include "stats/correlation.h"
#include "stats/histogram.h"
#include "stats/crosstab.h"
#include "stats/regression.h"
#include "stats/tests.h"
#include "storage/device.h"
#include "storage/slotted_page.h"

namespace statdb {

std::string_view CheckSeverityName(CheckSeverity s) {
  switch (s) {
    case CheckSeverity::kInfo: return "INFO";
    case CheckSeverity::kWarning: return "WARNING";
    case CheckSeverity::kError: return "ERROR";
  }
  return "UNKNOWN";
}

std::string CheckIssue::ToString() const {
  std::ostringstream os;
  os << CheckSeverityName(severity) << " [" << subsystem << "/" << invariant
     << "] " << message;
  return os.str();
}

void CheckReport::Add(CheckSeverity severity, std::string subsystem,
                      std::string invariant, std::string message) {
  if (severity == CheckSeverity::kError) ++errors_;
  if (severity == CheckSeverity::kWarning) ++warnings_;
  issues_.push_back(CheckIssue{severity, std::move(subsystem),
                               std::move(invariant), std::move(message)});
}

std::vector<const CheckIssue*> CheckReport::FindInvariant(
    const std::string& invariant) const {
  std::vector<const CheckIssue*> out;
  for (const CheckIssue& issue : issues_) {
    if (issue.invariant == invariant) out.push_back(&issue);
  }
  return out;
}

bool CheckReport::HasError(const std::string& invariant) const {
  for (const CheckIssue& issue : issues_) {
    if (issue.severity == CheckSeverity::kError &&
        issue.invariant == invariant) {
      return true;
    }
  }
  return false;
}

std::string CheckReport::ToString() const {
  std::ostringstream os;
  for (const CheckIssue& issue : issues_) {
    os << issue.ToString() << "\n";
  }
  os << (ok() ? "PASS" : "FAIL") << " (" << errors_ << " errors, "
     << warnings_ << " warnings, " << issues_.size() << " findings)";
  return os.str();
}

Status CheckReport::ToStatus() const {
  if (ok()) return Status::OK();
  std::ostringstream os;
  os << errors_ << " invariant violation(s):";
  size_t shown = 0;
  for (const CheckIssue& issue : issues_) {
    if (issue.severity != CheckSeverity::kError) continue;
    os << " [" << issue.subsystem << "/" << issue.invariant << "] "
       << issue.message << ";";
    if (++shown == 3) break;
  }
  if (shown < errors_) os << " ...";
  return DataLossError(os.str());
}

// --- buffer pool ------------------------------------------------------------

Status CheckBufferPool(const BufferPool& pool, CheckReport* report,
                       const BufferPoolCheckOptions& options) {
  const char* kSub = "buffer_pool";
  // Hold the pool's latch for the whole structural walk: the snapshot is
  // consistent, and the audit no longer relies on the caller promising
  // quiescence (scan workers may pin/unpin while this runs).
  MutexLock lock(CheckAccess::PoolMutex(pool));
  const auto& frames = CheckAccess::Frames(pool);
  const auto& free_frames = CheckAccess::FreeFrames(pool);
  const auto& page_table = CheckAccess::PageTable(pool);
  const auto& lru = CheckAccess::Lru(pool);

  // No-steal mode may grow overflow frames past nominal capacity (they
  // shrink back after FlushAll), so only a *shrunken* frame array is
  // structural corruption.
  if (frames.size() < pool.capacity()) {
    report->Add(CheckSeverity::kError, kSub, "frame-count",
                "frames_.size() < capacity: " +
                    std::to_string(frames.size()) + " vs " +
                    std::to_string(pool.capacity()));
    return Status::OK();  // everything below indexes frames_
  }

  // page_table_: in-bounds, id round-trips, one frame per entry.
  std::vector<char> resident(frames.size(), 0);
  for (const auto& [id, idx] : page_table) {
    if (idx >= frames.size()) {
      report->Add(CheckSeverity::kError, kSub, "table-bounds",
                  "page_table_ maps page " + std::to_string(id) +
                      " to out-of-range frame " + std::to_string(idx));
      continue;
    }
    if (resident[idx]) {
      report->Add(CheckSeverity::kError, kSub, "duplicate-frame",
                  "frame " + std::to_string(idx) +
                      " referenced by two page_table_ entries");
    }
    resident[idx] = 1;
    if (frames[idx].id != id) {
      report->Add(CheckSeverity::kError, kSub, "id-mismatch",
                  "page_table_[" + std::to_string(id) + "] = frame " +
                      std::to_string(idx) + " whose id is " +
                      std::to_string(frames[idx].id));
    }
  }

  // free list: in-bounds, unique, disjoint from residents.
  std::vector<char> free_mark(frames.size(), 0);
  for (size_t idx : free_frames) {
    if (idx >= frames.size()) {
      report->Add(CheckSeverity::kError, kSub, "free-bounds",
                  "free_frames_ holds out-of-range index " +
                      std::to_string(idx));
      continue;
    }
    if (free_mark[idx]) {
      report->Add(CheckSeverity::kError, kSub, "free-duplicate",
                  "frame " + std::to_string(idx) + " on free list twice");
    }
    free_mark[idx] = 1;
    if (resident[idx]) {
      report->Add(CheckSeverity::kError, kSub, "free-resident",
                  "frame " + std::to_string(idx) +
                      " is simultaneously free and page-mapped");
    }
  }

  // Every frame is accounted for exactly once.
  for (size_t i = 0; i < frames.size(); ++i) {
    if (!resident[i] && !free_mark[i]) {
      report->Add(CheckSeverity::kError, kSub, "frame-leak",
                  "frame " + std::to_string(i) +
                      " is neither free nor page-mapped");
    }
  }

  // lru_: members are resident, unpinned, marked in_lru with a matching
  // back-pointer, and appear exactly once.
  std::vector<size_t> lru_hits(frames.size(), 0);
  for (auto it = lru.begin(); it != lru.end(); ++it) {
    size_t idx = *it;
    if (idx >= frames.size()) {
      report->Add(CheckSeverity::kError, kSub, "lru-bounds",
                  "lru_ holds out-of-range index " + std::to_string(idx));
      continue;
    }
    ++lru_hits[idx];
    const auto& f = frames[idx];
    if (!resident[idx]) {
      report->Add(CheckSeverity::kError, kSub, "lru-nonresident",
                  "lru_ lists frame " + std::to_string(idx) +
                      " which is not in page_table_");
    }
    if (f.pin_count != 0) {
      report->Add(CheckSeverity::kError, kSub, "lru-pinned",
                  "frame " + std::to_string(idx) + " is on lru_ with pin "
                      "count " + std::to_string(f.pin_count));
    }
    if (!f.in_lru) {
      report->Add(CheckSeverity::kError, kSub, "lru-flag",
                  "frame " + std::to_string(idx) +
                      " is on lru_ but in_lru is false");
    } else if (f.lru_pos != it) {
      report->Add(CheckSeverity::kError, kSub, "lru-backpointer",
                  "frame " + std::to_string(idx) +
                      " lru_pos does not point at its lru_ entry");
    }
  }
  for (size_t i = 0; i < frames.size(); ++i) {
    if (lru_hits[i] > 1) {
      report->Add(CheckSeverity::kError, kSub, "lru-duplicate",
                  "frame " + std::to_string(i) + " appears " +
                      std::to_string(lru_hits[i]) + " times on lru_");
    }
    if (frames[i].in_lru && lru_hits[i] == 0) {
      report->Add(CheckSeverity::kError, kSub, "lru-flag",
                  "frame " + std::to_string(i) +
                      " has in_lru set but is absent from lru_");
    }
    if (resident[i] && frames[i].pin_count == 0 && lru_hits[i] == 0) {
      report->Add(CheckSeverity::kError, kSub, "lru-membership",
                  "unpinned resident frame " + std::to_string(i) +
                      " (page " + std::to_string(frames[i].id) +
                      ") is missing from lru_ and can never be evicted");
    }
    if (frames[i].pin_count < 0) {
      report->Add(CheckSeverity::kError, kSub, "negative-pin",
                  "frame " + std::to_string(i) + " has pin count " +
                      std::to_string(frames[i].pin_count));
    }
    if (options.expect_quiescent && frames[i].pin_count > 0) {
      report->Add(CheckSeverity::kError, kSub, "pin-leak",
                  "frame " + std::to_string(i) + " (page " +
                      std::to_string(frames[i].id) + ") still holds " +
                      std::to_string(frames[i].pin_count) +
                      " pin(s) at quiescence");
    }
  }
  return Status::OK();
}

// --- device checksums -------------------------------------------------------

Status CheckDeviceChecksums(const SimulatedDevice& device, uint64_t max_lsn,
                            CheckReport* report) {
  const char* kSub = "device";
  for (PageId pid = 0; pid < device.page_count(); ++pid) {
    const Page* page = CheckAccess::RawPage(device, pid);
    if (page == nullptr) break;  // cannot happen inside page_count()
    if (!page->header.checksummed()) continue;
    const uint32_t actual = Crc32c(page->data.data(), kPageSize);
    if (actual != page->header.checksum) {
      report->Add(CheckSeverity::kError, kSub, "page-checksum",
                  "device " + device.name() + " page " + std::to_string(pid) +
                      " stored checksum " +
                      std::to_string(page->header.checksum) +
                      " != computed " + std::to_string(actual));
    }
    if (page->header.lsn > max_lsn) {
      report->Add(CheckSeverity::kError, kSub, "page-lsn",
                  "device " + device.name() + " page " + std::to_string(pid) +
                      " claims lsn " + std::to_string(page->header.lsn) +
                      " beyond last committed lsn " + std::to_string(max_lsn));
    }
  }
  return Status::OK();
}

// --- B+-tree ----------------------------------------------------------------

namespace {

struct TreeWalkState {
  const BPlusTree* tree;
  const SimulatedDevice* device;
  CheckReport* report;
  std::unordered_set<PageId> visited;
  // Leaves in key order, with each leaf's stored next pointer.
  std::vector<std::pair<PageId, PageId>> leaf_chain;
  uint64_t entries = 0;
  int leaf_depth = -1;  // depth of the first leaf reached
  bool aborted = false;
};

// Bounds are half-open: every key in the subtree must satisfy
// lo <= key < hi (empty string = unbounded), matching the upper_bound
// descent in BPlusTree::FindLeaf.
void WalkTree(TreeWalkState* st, PageId pid, int depth, const std::string* lo,
              const std::string* hi) {
  const char* kSub = "btree";
  CheckReport* report = st->report;
  if (pid == kInvalidPageId || pid >= st->device->page_count()) {
    report->Add(CheckSeverity::kError, kSub, "dangling-child",
                "child pointer " + std::to_string(pid) +
                    " is outside the device's " +
                    std::to_string(st->device->page_count()) + " pages");
    return;
  }
  if (!st->visited.insert(pid).second) {
    report->Add(CheckSeverity::kError, kSub, "node-shared",
                "page " + std::to_string(pid) +
                    " reached twice (cycle or shared child)");
    st->aborted = true;
    return;
  }
  Result<CheckAccess::TreeNode> loaded = CheckAccess::LoadNode(*st->tree, pid);
  if (!loaded.ok()) {
    report->Add(CheckSeverity::kError, kSub, "node-parse",
                "page " + std::to_string(pid) +
                    " does not parse as a node: " +
                    loaded.status().ToString());
    return;
  }
  const CheckAccess::TreeNode& node = loaded.value();
  size_t bytes = CheckAccess::NodeSerializedSize(node);
  constexpr size_t kCapacity = kPageSize - sizeof(uint32_t);

  if (node.is_leaf) {
    if (st->leaf_depth < 0) {
      st->leaf_depth = depth;
    } else if (depth != st->leaf_depth) {
      report->Add(CheckSeverity::kError, kSub, "leaf-depth",
                  "leaf " + std::to_string(pid) + " at depth " +
                      std::to_string(depth) + ", expected " +
                      std::to_string(st->leaf_depth));
    }
    const auto& entries = node.leaf.entries;
    for (size_t i = 0; i < entries.size(); ++i) {
      if (i > 0 && !(entries[i - 1].first < entries[i].first)) {
        report->Add(CheckSeverity::kError, kSub, "key-order",
                    "leaf " + std::to_string(pid) + " entries " +
                        std::to_string(i - 1) + "," + std::to_string(i) +
                        " out of order");
      }
      if (lo != nullptr && entries[i].first < *lo) {
        report->Add(CheckSeverity::kError, kSub, "separator-bound",
                    "leaf " + std::to_string(pid) +
                        " holds a key below its subtree lower bound");
      }
      if (hi != nullptr && !(entries[i].first < *hi)) {
        report->Add(CheckSeverity::kError, kSub, "separator-bound",
                    "leaf " + std::to_string(pid) +
                        " holds a key at/above its subtree upper bound");
      }
    }
    st->entries += entries.size();
    st->leaf_chain.emplace_back(pid, node.leaf.next);
    // Deletion never rebalances (by design), so thin leaves are legal but
    // worth surfacing before a reorganize.
    if (depth > 0 && entries.empty()) {
      report->Add(CheckSeverity::kWarning, kSub, "empty-leaf",
                  "non-root leaf " + std::to_string(pid) + " is empty");
    } else if (depth > 0 && bytes * 4 < kCapacity) {
      report->Add(CheckSeverity::kWarning, kSub, "underfull-leaf",
                  "leaf " + std::to_string(pid) + " is below 25% fill (" +
                      std::to_string(bytes) + " bytes)");
    }
    return;
  }

  const auto& keys = node.internal.keys;
  const auto& children = node.internal.children;
  if (children.size() != keys.size() + 1) {
    report->Add(CheckSeverity::kError, kSub, "fanout",
                "internal " + std::to_string(pid) + " has " +
                    std::to_string(keys.size()) + " keys but " +
                    std::to_string(children.size()) + " children");
    return;
  }
  if (keys.empty()) {
    report->Add(CheckSeverity::kError, kSub, "empty-internal",
                "internal " + std::to_string(pid) + " has no separators");
  }
  for (size_t i = 0; i + 1 < keys.size(); ++i) {
    if (!(keys[i] < keys[i + 1])) {
      report->Add(CheckSeverity::kError, kSub, "key-order",
                  "internal " + std::to_string(pid) + " separators " +
                      std::to_string(i) + "," + std::to_string(i + 1) +
                      " out of order");
    }
  }
  for (const std::string& k : keys) {
    if (lo != nullptr && k < *lo) {
      report->Add(CheckSeverity::kError, kSub, "separator-bound",
                  "internal " + std::to_string(pid) +
                      " separator below its subtree lower bound");
    }
    if (hi != nullptr && !(k < *hi)) {
      report->Add(CheckSeverity::kError, kSub, "separator-bound",
                  "internal " + std::to_string(pid) +
                      " separator at/above its subtree upper bound");
    }
  }
  for (size_t i = 0; i < children.size(); ++i) {
    if (st->aborted) return;
    const std::string* child_lo = i == 0 ? lo : &keys[i - 1];
    const std::string* child_hi = i == keys.size() ? hi : &keys[i];
    WalkTree(st, children[i], depth + 1, child_lo, child_hi);
  }
}

}  // namespace

Status CheckBPlusTree(const BPlusTree& tree, CheckReport* report) {
  const char* kSub = "btree";
  TreeWalkState st;
  st.tree = &tree;
  // The walk validates child pointers against the device's allocated page
  // range before loading them, so a scribbled pointer is reported rather
  // than faulted on.
  st.device = CheckAccess::TreePool(tree)->device();
  st.report = report;
  WalkTree(&st, tree.root_id(), 0, nullptr, nullptr);

  // Sibling chain must equal the in-order leaf sequence.
  for (size_t i = 0; i < st.leaf_chain.size(); ++i) {
    PageId next = st.leaf_chain[i].second;
    PageId expect =
        i + 1 < st.leaf_chain.size() ? st.leaf_chain[i + 1].first
                                     : kInvalidPageId;
    if (next != expect) {
      report->Add(CheckSeverity::kError, kSub, "leaf-chain",
                  "leaf " + std::to_string(st.leaf_chain[i].first) +
                      " next pointer is " + std::to_string(next) +
                      ", expected " + std::to_string(expect));
    }
  }

  if (!st.aborted && st.entries != tree.size()) {
    report->Add(CheckSeverity::kError, kSub, "size-drift",
                "tree walk found " + std::to_string(st.entries) +
                    " entries but size() reports " +
                    std::to_string(tree.size()));
  }
  return Status::OK();
}

// --- slotted page -----------------------------------------------------------

Status CheckSlottedPage(const Page& page, CheckReport* report) {
  const char* kSub = "slotted_page";
  // Mirrors the layout documented in slotted_page.h: u16 slot_count,
  // u16 free_end, then 4-byte {offset, length} slots; 0xFFFF = deleted.
  constexpr size_t kHeaderSize = 4;
  constexpr size_t kSlotSize = 4;
  auto get_u16 = [&page](size_t off) {
    uint16_t v;
    std::memcpy(&v, page.bytes() + off, sizeof(v));
    return v;
  };
  uint16_t slot_count = get_u16(0);
  uint16_t free_end = get_u16(2);
  size_t slots_end = kHeaderSize + size_t(slot_count) * kSlotSize;

  if (free_end > kPageSize) {
    report->Add(CheckSeverity::kError, kSub, "free-end-bounds",
                "free_end " + std::to_string(free_end) +
                    " exceeds the page size");
    return Status::OK();
  }
  if (slots_end > kPageSize) {
    report->Add(CheckSeverity::kError, kSub, "directory-bounds",
                "slot directory (" + std::to_string(slot_count) +
                    " slots) runs past the page end");
    return Status::OK();
  }
  if (slots_end > free_end) {
    report->Add(CheckSeverity::kError, kSub, "directory-overlap",
                "slot directory ends at " + std::to_string(slots_end) +
                    " past free_end " + std::to_string(free_end));
  }

  std::vector<std::pair<uint16_t, uint16_t>> live;  // (offset, length)
  size_t min_live_offset = kPageSize;
  for (uint16_t s = 0; s < slot_count; ++s) {
    uint16_t offset = get_u16(kHeaderSize + size_t(s) * kSlotSize);
    if (offset == SlottedPage::kDeletedOffset) continue;
    uint16_t length = get_u16(kHeaderSize + size_t(s) * kSlotSize + 2);
    if (size_t(offset) + length > kPageSize || offset < slots_end) {
      report->Add(CheckSeverity::kError, kSub, "cell-bounds",
                  "slot " + std::to_string(s) + " cell [" +
                      std::to_string(offset) + ", " +
                      std::to_string(offset + length) +
                      ") is out of bounds");
      continue;
    }
    if (offset < free_end) {
      report->Add(CheckSeverity::kError, kSub, "free-space-accounting",
                  "slot " + std::to_string(s) + " cell starts at " +
                      std::to_string(offset) + " below free_end " +
                      std::to_string(free_end));
    }
    min_live_offset = std::min(min_live_offset, size_t(offset));
    live.emplace_back(offset, length);
  }

  std::sort(live.begin(), live.end());
  for (size_t i = 0; i + 1 < live.size(); ++i) {
    if (size_t(live[i].first) + live[i].second > live[i + 1].first) {
      report->Add(CheckSeverity::kError, kSub, "cell-overlap",
                  "cells at offsets " + std::to_string(live[i].first) +
                      " and " + std::to_string(live[i + 1].first) +
                      " overlap");
    }
  }
  // free_end at or below the lowest live cell is exact accounting; bytes
  // between free_end and the lowest cell are holes reclaimed by Compact.
  if (!live.empty() && free_end > min_live_offset) {
    report->Add(CheckSeverity::kError, kSub, "free-space-accounting",
                "free_end " + std::to_string(free_end) +
                    " overlaps the lowest live cell at " +
                    std::to_string(min_live_offset));
  }
  return Status::OK();
}

// --- column files -----------------------------------------------------------

Status CheckColumnFile(const ColumnFile& file, CheckReport* report) {
  const char* kSub = "column_file";
  const auto& pages = CheckAccess::Pages(file);
  BufferPool* pool = CheckAccess::Pool(file);
  uint64_t count = file.size();
  size_t expect_pages =
      size_t((count + ColumnFile::kCellsPerPage - 1) /
             ColumnFile::kCellsPerPage);
  if (pages.size() != expect_pages) {
    report->Add(CheckSeverity::kError, kSub, "page-count",
                std::to_string(count) + " cells need " +
                    std::to_string(expect_pages) + " pages but " +
                    std::to_string(pages.size()) + " are mapped");
    return Status::OK();
  }
  for (size_t p = 0; p < pages.size(); ++p) {
    Result<Page*> fetched = pool->FetchPage(pages[p]);
    if (!fetched.ok()) {
      report->Add(CheckSeverity::kError, kSub, "page-unreadable",
                  "page " + std::to_string(pages[p]) + ": " +
                      fetched.status().ToString());
      continue;
    }
    const Page& page = *fetched.value();
    uint32_t stored;
    std::memcpy(&stored, page.bytes() + CheckAccess::ColumnCountOff(), 4);
    uint64_t expect_cells =
        std::min<uint64_t>(ColumnFile::kCellsPerPage,
                           count - uint64_t(p) * ColumnFile::kCellsPerPage);
    if (stored != expect_cells) {
      report->Add(CheckSeverity::kError, kSub, "cell-count",
                  "page " + std::to_string(p) + " header says " +
                      std::to_string(stored) + " cells, accounting says " +
                      std::to_string(expect_cells));
    }
    // Validity bits past the page's cell count must stay clear — a set
    // tail bit means a bitmap write landed on the wrong ordinal.
    for (size_t i = expect_cells; i < ColumnFile::kCellsPerPage; ++i) {
      uint8_t byte =
          page.bytes()[CheckAccess::ColumnBitmapOff() + i / 8];
      if ((byte >> (i % 8)) & 1) {
        report->Add(CheckSeverity::kError, kSub, "bitmap-tail",
                    "page " + std::to_string(p) + " validity bit " +
                        std::to_string(i) + " set past the cell count");
        break;
      }
    }
    STATDB_RETURN_IF_ERROR(pool->UnpinPage(pages[p], /*dirty=*/false));
  }
  return Status::OK();
}

Status CheckRleRuns(const std::vector<RleRun>& runs, uint64_t expected_cells,
                    CheckReport* report) {
  const char* kSub = "rle";
  uint64_t total = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    total += runs[i].length;
    if (runs[i].length == 0) {
      report->Add(CheckSeverity::kError, kSub, "zero-run",
                  "run " + std::to_string(i) + " has zero length");
    }
    if (i > 0 && runs[i].present == runs[i - 1].present &&
        (!runs[i].present || runs[i].value == runs[i - 1].value)) {
      report->Add(CheckSeverity::kWarning, kSub, "non-canonical",
                  "runs " + std::to_string(i - 1) + "," +
                      std::to_string(i) + " are mergeable");
    }
  }
  if (total != expected_cells) {
    report->Add(CheckSeverity::kError, kSub, "length-sum",
                "run lengths sum to " + std::to_string(total) +
                    " but the column holds " +
                    std::to_string(expected_cells) + " cells");
  }
  return Status::OK();
}

Status CheckCompressedColumnFile(const CompressedColumnFile& file,
                                 CheckReport* report) {
  const char* kSub = "compressed_column";
  const auto& pages = CheckAccess::Pages(file);
  const auto& starts = CheckAccess::PageStarts(file);
  BufferPool* pool = CheckAccess::Pool(file);
  if (pages.size() != starts.size()) {
    report->Add(CheckSeverity::kError, kSub, "directory-size",
                "page directory has " + std::to_string(starts.size()) +
                    " entries for " + std::to_string(pages.size()) +
                    " pages");
    return Status::OK();
  }
  uint64_t ordinal = 0;
  uint64_t runs_seen = 0;
  std::vector<RleRun> all_runs;
  for (size_t p = 0; p < pages.size(); ++p) {
    if (starts[p] != ordinal) {
      report->Add(CheckSeverity::kError, kSub, "directory-ordinal",
                  "page " + std::to_string(p) + " directory start is " +
                      std::to_string(starts[p]) + ", accounting says " +
                      std::to_string(ordinal));
    }
    Result<Page*> fetched = pool->FetchPage(pages[p]);
    if (!fetched.ok()) {
      report->Add(CheckSeverity::kError, kSub, "page-unreadable",
                  "page " + std::to_string(pages[p]) + ": " +
                      fetched.status().ToString());
      continue;
    }
    const Page& page = *fetched.value();
    uint32_t n;
    std::memcpy(&n, page.bytes(), 4);
    if (n > CheckAccess::RunsPerPage()) {
      report->Add(CheckSeverity::kError, kSub, "run-count",
                  "page " + std::to_string(p) + " claims " +
                      std::to_string(n) + " runs, capacity is " +
                      std::to_string(CheckAccess::RunsPerPage()));
      n = 0;
    }
    for (uint32_t r = 0; r < n; ++r) {
      const uint8_t* base = page.bytes() + 8 + size_t(r) * 13;
      RleRun run;
      std::memcpy(&run.value, base, 8);
      std::memcpy(&run.length, base + 8, 4);
      run.present = base[12] != 0;
      ordinal += run.length;
      all_runs.push_back(run);
    }
    runs_seen += n;
    STATDB_RETURN_IF_ERROR(pool->UnpinPage(pages[p], /*dirty=*/false));
  }
  if (runs_seen != file.run_count()) {
    report->Add(CheckSeverity::kError, kSub, "run-accounting",
                "pages hold " + std::to_string(runs_seen) +
                    " runs but run_count() reports " +
                    std::to_string(file.run_count()));
  }
  STATDB_RETURN_IF_ERROR(CheckRleRuns(all_runs, file.size(), report));
  return Status::OK();
}

// --- summary database -------------------------------------------------------

namespace {

/// Parsed view of one head record and its derived expectations.
struct HeadState {
  SummaryDatabase::HeadInfo info;
  std::vector<std::string> attributes;
  bool decoded = false;
};

}  // namespace

Status CheckSummaryDb(SummaryDatabase* db, CheckReport* report) {
  const char* kSub = "summary_db";
  // One pass collects every index record; classification happens off the
  // scan so the checker never mutates or re-enters the tree mid-iteration.
  std::vector<std::pair<std::string, std::string>> records;
  STATDB_RETURN_IF_ERROR(db->index()->ScanRange(
      "", "", [&records](const std::string& k, const std::string& v) {
        records.emplace_back(k, v);
        return true;
      }));

  std::map<std::string, HeadState> heads;
  std::vector<std::pair<std::string, uint32_t>> chunks;  // (primary, index)
  std::vector<std::pair<std::string, std::string>> refs;  // (attr, primary)
  std::map<std::string, std::string> chunk_payloads;      // full chunk key

  for (const auto& [key, value] : records) {
    size_t chunk_pos = key.find(SummaryDatabase::kChunkSep);
    size_t ref_pos = key.find(SummaryDatabase::kRefSep);
    if (chunk_pos != std::string::npos) {
      std::string primary = key.substr(0, chunk_pos);
      const char* first = key.data() + chunk_pos + 1;
      const char* last = key.data() + key.size();
      uint32_t index = 0;
      auto [ptr, ec] = std::from_chars(first, last, index);
      if (ec != std::errc() || ptr != last) {
        report->Add(CheckSeverity::kError, kSub, "chunk-key",
                    "continuation record index is not a 32-bit decimal: " +
                        primary);
        continue;
      }
      chunks.emplace_back(primary, index);
      chunk_payloads[key] = value;
    } else if (ref_pos != std::string::npos) {
      refs.emplace_back(key.substr(0, ref_pos), key.substr(ref_pos + 1));
    } else {
      HeadState state;
      Result<SummaryDatabase::HeadInfo> info =
          SummaryDatabase::DecodeHeadRecord(value);
      if (!info.ok()) {
        report->Add(CheckSeverity::kError, kSub, "head-corrupt",
                    "head record '" + key + "' does not decode: " +
                        info.status().ToString());
      } else {
        state.info = std::move(info).value();
        state.decoded = true;
      }
      Result<SummaryKey> skey = SummaryKey::Decode(key);
      if (!skey.ok()) {
        report->Add(CheckSeverity::kError, kSub, "key-encoding",
                    "head key '" + key + "' does not decode as a "
                        "SummaryKey");
      } else {
        state.attributes = skey.value().attributes;
        if (skey.value().Encode() != key) {
          report->Add(CheckSeverity::kError, kSub, "key-encoding",
                      "head key '" + key + "' does not round-trip");
        }
      }
      heads.emplace(key, std::move(state));
    }
  }

  // entry_count_ vs. the tree walk.
  if (heads.size() != db->entry_count()) {
    report->Add(CheckSeverity::kError, kSub, "entry-count-drift",
                "tree walk found " + std::to_string(heads.size()) +
                    " head records but entry_count() reports " +
                    std::to_string(db->entry_count()));
  }

  // Continuation chunks: every chunk belongs to a chunked head and lies
  // inside its declared chain; every declared chunk exists; the stitched
  // payload deserializes.
  std::map<std::string, std::set<uint32_t>> chunks_by_head;
  for (const auto& [primary, index] : chunks) {
    auto it = heads.find(primary);
    if (it == heads.end()) {
      report->Add(CheckSeverity::kError, kSub, "orphan-chunk",
                  "continuation chunk " + std::to_string(index) +
                      " of '" + primary + "' has no head record");
      continue;
    }
    if (it->second.decoded && !it->second.info.chunked) {
      report->Add(CheckSeverity::kError, kSub, "orphan-chunk",
                  "head '" + primary + "' is not chunked but chunk " +
                      std::to_string(index) + " exists");
      continue;
    }
    if (it->second.decoded && index >= it->second.info.nchunks) {
      report->Add(CheckSeverity::kError, kSub, "orphan-chunk",
                  "chunk " + std::to_string(index) + " of '" + primary +
                      "' is past the declared " +
                      std::to_string(it->second.info.nchunks) + " chunks");
      continue;
    }
    chunks_by_head[primary].insert(index);
  }
  for (const auto& [key, state] : heads) {
    if (!state.decoded) continue;
    std::string payload;
    bool complete = true;
    if (state.info.chunked) {
      if (state.info.nchunks == 0) {
        report->Add(CheckSeverity::kError, kSub, "chunk-missing",
                    "head '" + key + "' is chunked with zero chunks");
        continue;
      }
      const std::set<uint32_t>& present = chunks_by_head[key];
      for (uint32_t i = 0; i < state.info.nchunks; ++i) {
        if (!present.contains(i)) {
          report->Add(CheckSeverity::kError, kSub, "chunk-missing",
                      "head '" + key + "' is missing continuation chunk " +
                          std::to_string(i) + " of " +
                          std::to_string(state.info.nchunks));
          complete = false;
        }
      }
      if (complete) {
        for (uint32_t i = 0; i < state.info.nchunks; ++i) {
          char buf[16];
          std::snprintf(buf, sizeof(buf), "%06u", i);
          payload += chunk_payloads[key + SummaryDatabase::kChunkSep + buf];
        }
      }
    } else {
      payload = state.info.inline_payload;
    }
    if (complete) {
      std::vector<uint8_t> bytes(payload.begin(), payload.end());
      if (!SummaryResult::Deserialize(bytes).ok()) {
        report->Add(CheckSeverity::kError, kSub, "payload-corrupt",
                    "head '" + key +
                        "' payload does not deserialize as a "
                        "SummaryResult");
      }
    }
    // Multi-attribute entries must be findable from every input
    // attribute: a reference record per non-leading attribute.
    for (size_t i = 1; i < state.attributes.size(); ++i) {
      bool found = false;
      for (const auto& [attr, primary] : refs) {
        if (attr == state.attributes[i] && primary == key) {
          found = true;
          break;
        }
      }
      if (!found) {
        report->Add(CheckSeverity::kError, kSub, "ref-missing",
                    "head '" + key + "' has no reference record under "
                        "attribute '" + state.attributes[i] + "'");
      }
    }
  }

  // Reference records resolve to live heads that actually list the
  // referencing attribute.
  for (const auto& [attr, primary] : refs) {
    auto it = heads.find(primary);
    if (it == heads.end()) {
      report->Add(CheckSeverity::kError, kSub, "dangling-ref",
                  "reference under '" + attr + "' points at missing "
                      "head '" + primary + "'");
      continue;
    }
    const auto& attrs = it->second.attributes;
    bool listed = false;
    for (size_t i = 1; i < attrs.size(); ++i) {
      if (attrs[i] == attr) listed = true;
    }
    if (!listed) {
      report->Add(CheckSeverity::kError, kSub, "ref-mismatch",
                  "reference under '" + attr + "' points at head '" +
                      primary + "' which does not list it as a "
                      "non-leading attribute");
    }
  }
  return Status::OK();
}

// --- differential oracle ----------------------------------------------------

namespace {

bool ApproxEqual(double a, double b, double abs_tol, double rel_tol) {
  if (std::isnan(a) && std::isnan(b)) return true;
  if (std::isinf(a) || std::isinf(b)) return a == b;
  return std::fabs(a - b) <=
         abs_tol + rel_tol * std::max(std::fabs(a), std::fabs(b));
}

bool VectorsApproxEqual(const std::vector<double>& a,
                        const std::vector<double>& b, double abs_tol,
                        double rel_tol) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!ApproxEqual(a[i], b[i], abs_tol, rel_tol)) return false;
  }
  return true;
}

}  // namespace

bool SummaryResultsApproxEqual(const SummaryResult& a, const SummaryResult& b,
                               double abs_tol, double rel_tol) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case SummaryResultKind::kScalar:
      return ApproxEqual(a.AsScalar().value(), b.AsScalar().value(), abs_tol,
                         rel_tol);
    case SummaryResultKind::kVector:
      return VectorsApproxEqual(*a.AsVector().value(), *b.AsVector().value(),
                                abs_tol, rel_tol);
    case SummaryResultKind::kHistogram: {
      const Histogram* ha = a.AsHistogram().value();
      const Histogram* hb = b.AsHistogram().value();
      return VectorsApproxEqual(ha->edges, hb->edges, abs_tol, rel_tol) &&
             ha->counts == hb->counts && ha->below == hb->below &&
             ha->above == hb->above;
    }
    case SummaryResultKind::kModel: {
      const LinearFit* fa = a.AsModel().value();
      const LinearFit* fb = b.AsModel().value();
      return fa->n == fb->n &&
             ApproxEqual(fa->slope, fb->slope, abs_tol, rel_tol) &&
             ApproxEqual(fa->intercept, fb->intercept, abs_tol, rel_tol) &&
             ApproxEqual(fa->r_squared, fb->r_squared, abs_tol, rel_tol) &&
             ApproxEqual(fa->residual_stddev, fb->residual_stddev, abs_tol,
                         rel_tol);
    }
    case SummaryResultKind::kCrossTab: {
      const CrossTab* ca = a.AsCrossTab().value();
      const CrossTab* cb = b.AsCrossTab().value();
      return ca->row_labels == cb->row_labels &&
             ca->col_labels == cb->col_labels && ca->counts == cb->counts;
    }
    case SummaryResultKind::kText:
      return *a.AsText().value() == *b.AsText().value();
  }
  return false;
}

namespace {

/// Recomputes a bivariate result the way StatisticalDbms computes it,
/// independently re-deriving the answer from the raw columns. NOT_FOUND
/// means "this oracle cannot verify that function".
Result<SummaryResult> RecomputeMultiAttribute(const SummaryKey& key,
                                              const ViewOracle& oracle) {
  if (key.attributes.size() != 2 || !oracle.read_column) {
    return NotFoundError("unverifiable multi-attribute entry");
  }
  const std::string& fn = key.function;
  STATDB_ASSIGN_OR_RETURN(std::vector<Value> va,
                          oracle.read_column(key.attributes[0]));
  STATDB_ASSIGN_OR_RETURN(std::vector<Value> vb,
                          oracle.read_column(key.attributes[1]));
  if (fn == "correlation" || fn == "covariance" || fn == "regression") {
    std::vector<double> xs, ys;
    for (size_t i = 0; i < va.size() && i < vb.size(); ++i) {
      if (va[i].is_null() || vb[i].is_null()) continue;
      Result<double> x = va[i].ToDouble();
      Result<double> y = vb[i].ToDouble();
      if (!x.ok() || !y.ok()) continue;
      xs.push_back(x.value());
      ys.push_back(y.value());
    }
    if (fn == "correlation") {
      STATDB_ASSIGN_OR_RETURN(double r, PearsonR(xs, ys));
      return SummaryResult::Scalar(r);
    }
    if (fn == "covariance") {
      STATDB_ASSIGN_OR_RETURN(double c, Covariance(xs, ys));
      return SummaryResult::Scalar(c);
    }
    STATDB_ASSIGN_OR_RETURN(LinearFit fit, FitLinear(xs, ys));
    return SummaryResult::Model(fit);
  }
  if (fn == "crosstab" || fn == "chi2_independence") {
    Table pair{
        Schema({Attribute::Category(key.attributes[0], DataType::kInt64),
                Attribute::Category(key.attributes[1], DataType::kInt64)})};
    for (size_t i = 0; i < va.size() && i < vb.size(); ++i) {
      Row row = {va[i], vb[i]};
      STATDB_RETURN_IF_ERROR(pair.AppendRow(std::move(row)));
    }
    STATDB_ASSIGN_OR_RETURN(
        CrossTab ct,
        BuildCrossTab(pair, key.attributes[0], key.attributes[1]));
    if (fn == "crosstab") return SummaryResult::Contingency(std::move(ct));
    STATDB_ASSIGN_OR_RETURN(TestResult tr, ChiSquaredIndependence(ct));
    return SummaryResult::Vector({tr.statistic, tr.dof, tr.p_value});
  }
  if (fn == "welch_t") {
    STATDB_ASSIGN_OR_RETURN(FunctionParams params,
                            FunctionParams::Decode(key.params));
    STATDB_ASSIGN_OR_RETURN(double code_a, params.Get("a"));
    STATDB_ASSIGN_OR_RETURN(double code_b, params.Get("b"));
    std::vector<double> group_a, group_b;
    for (size_t i = 0; i < va.size() && i < vb.size(); ++i) {
      if (va[i].is_null() || vb[i].is_null()) continue;
      Result<int64_t> code = vb[i].ToInt();
      Result<double> v = va[i].ToDouble();
      if (!code.ok() || !v.ok()) continue;
      if (double(*code) == code_a) group_a.push_back(*v);
      if (double(*code) == code_b) group_b.push_back(*v);
    }
    STATDB_ASSIGN_OR_RETURN(TestResult tr, WelchTTest(group_a, group_b));
    return SummaryResult::Vector({tr.statistic, tr.dof, tr.p_value});
  }
  return NotFoundError("unverifiable multi-attribute function " + fn);
}

}  // namespace

Status AuditSummaryAgainstView(SummaryDatabase* summary,
                               const FunctionRegistry& functions,
                               const ViewOracle& oracle, CheckReport* report,
                               const AuditOptions& options) {
  const char* kSub = "summary_oracle";
  std::vector<SummaryEntry> entries;
  STATDB_RETURN_IF_ERROR(summary->ForEach([&](const SummaryEntry& e) {
    entries.push_back(e);
    return Status::OK();
  }));

  // Column reads are shared across every entry on the same attribute.
  std::map<std::string, std::vector<double>> numeric_cache;
  auto read_numeric =
      [&](const std::string& attr) -> Result<std::vector<double>> {
    auto it = numeric_cache.find(attr);
    if (it != numeric_cache.end()) return it->second;
    STATDB_ASSIGN_OR_RETURN(std::vector<double> data,
                            oracle.read_numeric(attr));
    numeric_cache.emplace(attr, data);
    return data;
  };

  for (const SummaryEntry& e : entries) {
    if (e.key.function == kNoteFunction ||
        e.result.kind() == SummaryResultKind::kText) {
      continue;  // annotations have no ground truth in the view
    }
    const bool pending = std::ranges::any_of(
        e.key.attributes,
        [&](const auto& a) { return oracle.pending_attributes.contains(a); });
    if ((e.stale || pending) && !options.include_stale) {
      continue;  // declared drift is not silent drift
    }
    if (e.view_version > oracle.view_version) {
      report->Add(CheckSeverity::kError, kSub, "future-version",
                  e.key.ToString() + " was maintained at view version " +
                      std::to_string(e.view_version) +
                      " but the view is at " +
                      std::to_string(oracle.view_version));
    }

    Result<SummaryResult> fresh = Status::OK();
    if (e.key.attributes.size() == 1) {
      if (!oracle.read_numeric ||
          !functions.Find(e.key.function).ok()) {
        report->Add(CheckSeverity::kInfo, kSub, "unverifiable",
                    e.key.ToString() +
                        " has no registered recomputation rule");
        continue;
      }
      Result<FunctionParams> params = FunctionParams::Decode(e.key.params);
      if (!params.ok()) {
        report->Add(CheckSeverity::kError, kSub, "params-corrupt",
                    e.key.ToString() + " carries undecodable params");
        continue;
      }
      Result<std::vector<double>> data = read_numeric(e.key.attributes[0]);
      if (!data.ok()) {
        report->Add(CheckSeverity::kError, kSub, "column-unreadable",
                    e.key.ToString() + ": " + data.status().ToString());
        continue;
      }
      const Histogram* cached_hist = nullptr;
      if (e.key.function == "histogram" &&
          e.result.kind() == SummaryResultKind::kHistogram) {
        cached_hist = e.result.AsHistogram().value();
      }
      if (cached_hist != nullptr && cached_hist->edges.size() >= 2) {
        // Incrementally maintained histograms freeze their bucket edges
        // while updates move the column's min/max, so a recompute with
        // auto-derived edges is the wrong ground truth. Recount the
        // current column into the cached edges instead: the counts (and
        // below/above spill) must still describe the data exactly.
        Result<Histogram> recount = BuildHistogram(
            data.value(), cached_hist->buckets(), cached_hist->edges.front(),
            cached_hist->edges.back());
        if (recount.ok()) {
          fresh = SummaryResult::Histo(std::move(recount).value());
        } else {
          fresh = std::move(recount).status();
        }
      } else {
        fresh = functions.Compute(e.key.function, data.value(),
                                  params.value());
      }
    } else {
      fresh = RecomputeMultiAttribute(e.key, oracle);
      if (!fresh.ok() && fresh.status().code() == StatusCode::kNotFound) {
        report->Add(CheckSeverity::kInfo, kSub, "unverifiable",
                    e.key.ToString() +
                        " has no oracle recomputation rule");
        continue;
      }
    }
    if (!fresh.ok()) {
      // The view no longer supports computing a value the cache serves as
      // fresh — e.g. every cell of the column went missing. That is drift.
      report->Add(CheckSeverity::kError, kSub, "summary-drift",
                  e.key.ToString() + " is cached but recomputation "
                      "fails: " + fresh.status().ToString());
      continue;
    }
    if (!SummaryResultsApproxEqual(e.result, fresh.value(),
                                   options.abs_tolerance,
                                   options.rel_tolerance)) {
      report->Add(CheckSeverity::kError, kSub, "summary-drift",
                  e.key.ToString() + " cached " + e.result.ToString() +
                      " but the view recomputes to " +
                      fresh.value().ToString());
    }
  }
  return Status::OK();
}

}  // namespace statdb
