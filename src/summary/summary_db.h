#ifndef STATDB_SUMMARY_SUMMARY_DB_H_
#define STATDB_SUMMARY_SUMMARY_DB_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "storage/btree.h"
#include "summary/summary_key.h"
#include "summary/summary_result.h"

namespace statdb {

/// One cached row of the Summary Database (Fig. 4: FUNCTION_NAME,
/// ATTRIBUTE_NAME, RESULT — plus maintenance metadata).
struct SummaryEntry {
  SummaryKey key;
  SummaryResult result;
  /// View version current when the result was computed/maintained.
  uint64_t view_version = 0;
  /// Marked by the invalidate-lazily strategy (§4.3); a stale entry is
  /// not served under an exact accuracy policy.
  bool stale = false;
};

/// Cache-effectiveness counters.
struct SummaryDbStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t stale_hits = 0;  // found but marked stale
  /// Stale entries the DBMS actually served under an approximate accuracy
  /// policy (allow_stale / max_version_lag, §3.2) — bumped by
  /// NoteServedStale, a subset of stale_hits.
  uint64_t served_stale = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t invalidated = 0;

  /// Fresh-answer rate: fraction of lookups answered by a non-stale
  /// entry. Under-reports cache effectiveness when analysts accept
  /// approximate answers — a stale entry served under allow_stale spared
  /// the full recomputation exactly like a hit did.
  double HitRate() const {
    return lookups == 0 ? 0.0 : double(hits) / double(lookups);
  }
  /// Effective-answer rate: fraction of lookups the cache answered at
  /// all, fresh or served-stale. This is the economic figure of §3.2 —
  /// every served lookup avoided touching the data — and what the
  /// metrics export reports alongside HitRate.
  double ServedRate() const {
    return lookups == 0 ? 0.0
                        : double(hits + served_stale) / double(lookups);
  }
};

/// The per-view Summary Database (§3.2): "Each Summary Database serves as
/// a cache for the user view. Rather than storing frequently used data
/// ... we choose to store results of query (or function) executions."
///
/// Entries live in a paged B+-tree keyed by the clustered encoding
/// `attr|function|params`, so all results on one attribute are physically
/// adjacent ("data will most likely be clustered on attribute name to
/// facilitate efficient access to all results on a given column").
/// Results larger than an index slot are transparently chunked across
/// continuation records. Multi-attribute results (correlation, cross
/// tabs) additionally post a reference record under each non-leading
/// attribute so an update to *any* input attribute finds them.
class SummaryDatabase {
 public:
  static Result<std::unique_ptr<SummaryDatabase>> Create(BufferPool* pool);

  /// Re-attaches to an existing on-device summary index (crash
  /// recovery): tree root/size and the entry count come from a durable
  /// manifest. Stats restart at zero — they are session counters.
  static std::unique_ptr<SummaryDatabase> Attach(BufferPool* pool,
                                                 PageId tree_root,
                                                 uint64_t tree_size,
                                                 uint64_t entry_count) {
    auto db = std::unique_ptr<SummaryDatabase>(
        new SummaryDatabase(BPlusTree::Attach(pool, tree_root, tree_size)));
    MutexLock lock(db->stats_mu_);
    db->entry_count_ = entry_count;
    return db;
  }

  SummaryDatabase(const SummaryDatabase&) = delete;
  SummaryDatabase& operator=(const SummaryDatabase&) = delete;

  /// Cache probe. NOT_FOUND on miss; a hit returns the entry (caller
  /// decides whether a stale entry is acceptable for its accuracy
  /// policy).
  Result<SummaryEntry> Lookup(const SummaryKey& key);

  /// Inserts or replaces the cached result for `key`.
  Status Insert(const SummaryKey& key, const SummaryResult& result,
                uint64_t view_version);

  /// Overwrites the result of an existing entry in place (used by the
  /// incremental maintainers) and freshens its version.
  Status Refresh(const SummaryKey& key, const SummaryResult& result,
                 uint64_t view_version);

  /// Marks one entry stale.
  Status MarkStale(const SummaryKey& key);

  /// Marks every entry referencing `attribute` stale — the paper's
  /// fallback maintenance strategy (§4.3: "after each update operation
  /// all the values associated with the updated attribute will be marked
  /// as invalid"). Returns how many entries were marked.
  Result<uint64_t> InvalidateAttribute(const std::string& attribute);

  /// Caps every entry's recorded view version at `max_version`. Run after
  /// a rollback moves the view version backwards: entries untouched by the
  /// undone updates keep their (still valid) results, but an entry may not
  /// claim maintenance at a version the view no longer reached — those
  /// stamps would collide with re-advanced version numbers and corrupt
  /// `max_version_lag` staleness arithmetic. Returns how many were capped.
  Result<uint64_t> ClampVersions(uint64_t max_version);

  /// Removes one entry (and its chunks and reference records).
  Status Remove(const SummaryKey& key);

  /// Visits every entry whose attribute list contains `attribute` —
  /// the clustered access path the Management Database rules use (§4.1).
  Status ForEachOnAttribute(
      const std::string& attribute,
      const std::function<Status(const SummaryEntry&)>& fn);

  /// Visits every entry (Fig. 4-style dump).
  Status ForEach(const std::function<Status(const SummaryEntry&)>& fn);

  uint64_t entry_count() const {
    MutexLock lock(stats_mu_);
    return entry_count_;
  }
  /// Counter snapshot by value — the pre-annotation API handed out a
  /// reference into the live struct, which tears against a concurrent
  /// Lookup/NoteServedStale (DumpMetrics while another session queries).
  SummaryDbStats stats() const {
    MutexLock lock(stats_mu_);
    return stats_;
  }
  void ResetStats() {
    MutexLock lock(stats_mu_);
    stats_ = SummaryDbStats{};
  }

  /// The accuracy policy lives with the DBMS, not the cache: Lookup
  /// cannot know whether a stale entry will be accepted. The DBMS calls
  /// this when it serves one, so ServedRate counts it as an effective
  /// answer.
  void NoteServedStale() {
    MutexLock lock(stats_mu_);
    ++stats_.served_stale;
  }

  /// The underlying index (exposed for benchmarks comparing indexed
  /// lookup against a scan).
  BPlusTree* index() { return tree_.get(); }

  // --- audit support (src/check) -----------------------------------------

  /// Record-key separators of the index encoding. A key containing
  /// kChunkSep is a continuation chunk (`<primary> 0x01 <6-digit index>`);
  /// one containing kRefSep is a reference record (`<attr> 0x02
  /// <primary>`); anything else is a head record.
  static constexpr char kChunkSep = '\x01';
  static constexpr char kRefSep = '\x02';

  /// Decoded head-record metadata, exposed so the structural auditor can
  /// verify chunk chains and flag coherence without re-deriving the
  /// on-index format.
  struct HeadInfo {
    bool stale = false;
    bool chunked = false;
    uint64_t view_version = 0;
    uint32_t nchunks = 0;        // chunked heads only
    std::string inline_payload;  // non-chunked heads only
  };
  static Result<HeadInfo> DecodeHeadRecord(const std::string& value);

  /// Test hook: deliberately desynchronizes entry_count_ so auditor tests
  /// can prove the count-vs-tree-walk check fires. Never call outside
  /// tests.
  void TestOnlyAdjustEntryCount(int64_t delta) {
    MutexLock lock(stats_mu_);
    entry_count_ = static_cast<uint64_t>(
        static_cast<int64_t>(entry_count_) + delta);
  }

 private:
  /// Read-only introspection for the structural auditor (src/check).
  friend class CheckAccess;

  explicit SummaryDatabase(std::unique_ptr<BPlusTree> tree)
      : tree_(std::move(tree)) {}

  /// First attribute of an encoded key (empty if the key is a reference
  /// or continuation record).
  static std::string LeadingAttribute(const std::string& encoded);

  /// Encoded keys of every entry naming `attribute`, each once: primary
  /// records led by it and reference records of the others.
  Result<std::vector<std::string>> PrimariesOn(const std::string& attribute);

  Result<SummaryEntry> LoadEntry(const std::string& encoded_key,
                                 const std::string& head_value);
  Status StoreEntry(const SummaryKey& key, const SummaryResult& result,
                    uint64_t view_version, bool stale);
  Status EraseChunksAndRefs(const SummaryKey& key);

  /// The tree itself is externally synchronized (one mutating session at
  /// a time — the Dbms discipline); the counters below are the state a
  /// concurrent observer may legitimately read, so they get their own
  /// latch. Held only for counter bumps/snapshots, never across tree
  /// I/O or the ForEach* callbacks (which may re-enter this class).
  mutable Mutex stats_mu_;

  std::unique_ptr<BPlusTree> tree_;
  uint64_t entry_count_ STATDB_GUARDED_BY(stats_mu_) = 0;
  SummaryDbStats stats_ STATDB_GUARDED_BY(stats_mu_);
};

}  // namespace statdb

#endif  // STATDB_SUMMARY_SUMMARY_DB_H_
