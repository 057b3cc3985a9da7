#ifndef STATDB_STORAGE_BTREE_H_
#define STATDB_STORAGE_BTREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/buffer_pool.h"

namespace statdb {

/// Paged B+-tree mapping byte-string keys to byte-string values.
///
/// The Summary Database keeps its `(attribute, function)` index here
/// (§3.2: "we envision the use of a secondary index on function
/// name-attribute name", clustered on attribute name — prefix scans over
/// an attribute enumerate all cached functions for it).
///
/// Structure: leaves hold sorted (key, value) records and are chained for
/// range scans; internal nodes hold separators. Nodes are (de)serialized
/// whole per access — the simulator charges I/O per page touch, which is
/// the metric of interest. Deletion does not rebalance (underfull nodes
/// are permitted); this trades space for simplicity and never affects
/// correctness.
class BPlusTree {
 public:
  /// Upper bounds guaranteeing that a split always produces two nodes that
  /// fit in a page. Larger Summary results are chunked by the caller.
  static constexpr size_t kMaxKeySize = 512;
  static constexpr size_t kMaxValueSize = 1536;

  /// Creates an empty tree whose pages live in `pool`.
  static Result<std::unique_ptr<BPlusTree>> Create(BufferPool* pool);

  /// Re-attaches to an existing on-device tree (crash recovery): root
  /// page id and entry count come from a durable manifest. No I/O.
  static std::unique_ptr<BPlusTree> Attach(BufferPool* pool, PageId root,
                                           uint64_t size) {
    auto tree = std::unique_ptr<BPlusTree>(new BPlusTree(pool));
    tree->root_ = root;
    tree->size_ = size;
    return tree;
  }

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  /// Inserts or replaces. Fails on oversized key/value.
  Status Put(const std::string& key, const std::string& value);

  /// Returns the value for `key` or NOT_FOUND.
  Result<std::string> Get(const std::string& key) const;

  /// Removes `key`; NOT_FOUND if absent.
  Status Delete(const std::string& key);

  /// Visits entries with key >= lo, in order, until `fn` returns false or
  /// a key >= hi is reached (hi empty = unbounded).
  Status ScanRange(
      const std::string& lo, const std::string& hi,
      const std::function<bool(const std::string&, const std::string&)>& fn)
      const;

  /// Visits every entry whose key starts with `prefix`.
  Status ScanPrefix(
      const std::string& prefix,
      const std::function<bool(const std::string&, const std::string&)>& fn)
      const;

  uint64_t size() const { return size_; }
  PageId root_id() const { return root_; }
  /// Height of the tree (1 = root is a leaf).
  Result<int> Height() const;

 private:
  /// Read-only introspection for the structural auditor (src/check).
  friend class CheckAccess;

  explicit BPlusTree(BufferPool* pool) : pool_(pool) {}

  struct LeafNode {
    PageId next = kInvalidPageId;
    std::vector<std::pair<std::string, std::string>> entries;
  };
  struct InternalNode {
    std::vector<std::string> keys;      // separators
    std::vector<PageId> children;       // keys.size() + 1
  };
  struct Node {
    bool is_leaf = true;
    LeafNode leaf;
    InternalNode internal;
  };
  struct SplitResult {
    std::string separator;  // first key of the new right sibling subtree
    PageId right = kInvalidPageId;
  };

  Result<Node> LoadNode(PageId pid) const;
  Status StoreNode(PageId pid, const Node& node) const;
  static size_t SerializedSize(const Node& node);
  Result<PageId> AllocNode(const Node& node);

  /// `depth` is the node's distance from the root.
  Result<std::optional<SplitResult>> InsertRec(PageId pid,
                                               const std::string& key,
                                               const std::string& value,
                                               bool* inserted_new, int depth);
  /// Descends to the leaf that would contain `key`.
  Result<PageId> FindLeaf(const std::string& key) const;

  BufferPool* pool_;
  PageId root_ = kInvalidPageId;
  uint64_t size_ = 0;
};

}  // namespace statdb

#endif  // STATDB_STORAGE_BTREE_H_
