#include "storage/btree.h"

#include <algorithm>
#include <cstring>

#include "common/bytes.h"

namespace statdb {

namespace {

// A node must serialize (with its u32 length prefix) into one page.
constexpr size_t kNodeCapacity = kPageSize - sizeof(uint32_t);

// Smallest encodings of a leaf entry (two length prefixes) and of an
// internal entry (a length prefix and a child id).
constexpr size_t kMinLeafEntryBytes = 4 + 4;
constexpr size_t kMinInternalEntryBytes = 4 + 8;

// Every internal node has at least two children, so a tree this tall
// would need more than 2^63 leaves. A descent that goes deeper is
// following a cycle in damaged pages.
constexpr int kMaxHeight = 64;

Status TooDeep() {
  return DataLossError("B+-tree descent deeper than any tree can be");
}

}  // namespace

Result<std::unique_ptr<BPlusTree>> BPlusTree::Create(BufferPool* pool) {
  std::unique_ptr<BPlusTree> tree(new BPlusTree(pool));
  Node root;
  root.is_leaf = true;
  STATDB_ASSIGN_OR_RETURN(tree->root_, tree->AllocNode(root));
  return tree;
}

size_t BPlusTree::SerializedSize(const Node& node) {
  // Mirrors StoreNode's encoding.
  size_t sz = 1 + 4;  // is_leaf + count
  if (node.is_leaf) {
    sz += 8;  // next pointer
    for (const auto& [k, v] : node.leaf.entries) {
      sz += 4 + k.size() + 4 + v.size();
    }
  } else {
    sz += 8;  // child0
    for (size_t i = 0; i < node.internal.keys.size(); ++i) {
      sz += 4 + node.internal.keys[i].size() + 8;
    }
  }
  return sz;
}

Status BPlusTree::StoreNode(PageId pid, const Node& node) const {
  ByteWriter w;
  w.PutU8(node.is_leaf ? 1 : 0);
  if (node.is_leaf) {
    w.PutU32(static_cast<uint32_t>(node.leaf.entries.size()));
    w.PutU64(node.leaf.next);
    for (const auto& [k, v] : node.leaf.entries) {
      w.PutString(k);
      w.PutString(v);
    }
  } else {
    w.PutU32(static_cast<uint32_t>(node.internal.keys.size()));
    w.PutU64(node.internal.children.empty() ? kInvalidPageId
                                            : node.internal.children[0]);
    for (size_t i = 0; i < node.internal.keys.size(); ++i) {
      w.PutString(node.internal.keys[i]);
      w.PutU64(node.internal.children[i + 1]);
    }
  }
  if (w.size() > kNodeCapacity) {
    return InternalError("B+-tree node overflow at store time");
  }
  STATDB_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(pid));
  uint32_t len = static_cast<uint32_t>(w.size());
  std::memcpy(page->bytes(), &len, sizeof(len));
  std::memcpy(page->bytes() + sizeof(len), w.bytes().data(), w.size());
  return pool_->UnpinPage(pid, /*dirty=*/true);
}

Result<BPlusTree::Node> BPlusTree::LoadNode(PageId pid) const {
  Result<Page*> fetched = pool_->FetchPage(pid);
  if (fetched.status().code() == StatusCode::kOutOfRange) {
    // Only a damaged pointer names a page past the device's end.
    return DataLossError("B+-tree pointer past the end of the device");
  }
  STATDB_ASSIGN_OR_RETURN(Page * page, std::move(fetched));
  uint32_t len;
  std::memcpy(&len, page->bytes(), sizeof(len));
  Node node;
  Status parse = Status::OK();
  if (len > kNodeCapacity) {
    parse = DataLossError("corrupt B+-tree node header");
  } else {
    ByteReader r(page->bytes() + sizeof(len), len);
    auto do_parse = [&]() -> Status {
      STATDB_ASSIGN_OR_RETURN(uint8_t is_leaf, r.GetU8());
      node.is_leaf = is_leaf != 0;
      if (node.is_leaf) {
        STATDB_ASSIGN_OR_RETURN(uint32_t count,
                                r.GetCount(kMinLeafEntryBytes));
        STATDB_ASSIGN_OR_RETURN(node.leaf.next, r.GetU64());
        node.leaf.entries.reserve(count);
        for (uint32_t i = 0; i < count; ++i) {
          STATDB_ASSIGN_OR_RETURN(std::string k, r.GetString());
          STATDB_ASSIGN_OR_RETURN(std::string v, r.GetString());
          node.leaf.entries.emplace_back(std::move(k), std::move(v));
        }
      } else {
        STATDB_ASSIGN_OR_RETURN(uint32_t count,
                                r.GetCount(kMinInternalEntryBytes));
        STATDB_ASSIGN_OR_RETURN(uint64_t child0, r.GetU64());
        node.internal.children.push_back(child0);
        node.internal.keys.reserve(count);
        for (uint32_t i = 0; i < count; ++i) {
          STATDB_ASSIGN_OR_RETURN(std::string k, r.GetString());
          STATDB_ASSIGN_OR_RETURN(uint64_t child, r.GetU64());
          node.internal.keys.push_back(std::move(k));
          node.internal.children.push_back(child);
        }
      }
      return Status::OK();
    };
    parse = AsDataLoss(do_parse());
  }
  STATDB_RETURN_IF_ERROR(pool_->UnpinPage(pid, /*dirty=*/false));
  STATDB_RETURN_IF_ERROR(parse);
  return node;
}

Result<PageId> BPlusTree::AllocNode(const Node& node) {
  STATDB_ASSIGN_OR_RETURN(auto fresh, pool_->NewPage());
  auto [pid, page] = fresh;
  (void)page;
  STATDB_RETURN_IF_ERROR(pool_->UnpinPage(pid, /*dirty=*/true));
  STATDB_RETURN_IF_ERROR(StoreNode(pid, node));
  return pid;
}

Result<PageId> BPlusTree::FindLeaf(const std::string& key) const {
  PageId pid = root_;
  for (int depth = 0;; ++depth) {
    if (depth == kMaxHeight) return TooDeep();
    STATDB_ASSIGN_OR_RETURN(Node node, LoadNode(pid));
    if (node.is_leaf) return pid;
    const auto& keys = node.internal.keys;
    size_t idx =
        std::upper_bound(keys.begin(), keys.end(), key) - keys.begin();
    pid = node.internal.children[idx];
  }
}

Result<std::string> BPlusTree::Get(const std::string& key) const {
  STATDB_ASSIGN_OR_RETURN(PageId leaf_pid, FindLeaf(key));
  STATDB_ASSIGN_OR_RETURN(Node node, LoadNode(leaf_pid));
  const auto& entries = node.leaf.entries;
  auto it = std::lower_bound(
      entries.begin(), entries.end(), key,
      [](const auto& e, const std::string& k) { return e.first < k; });
  if (it == entries.end() || it->first != key) {
    return NotFoundError("key not in B+-tree");
  }
  return it->second;
}

Result<std::optional<BPlusTree::SplitResult>> BPlusTree::InsertRec(
    PageId pid, const std::string& key, const std::string& value,
    bool* inserted_new, int depth) {
  if (depth == kMaxHeight) return TooDeep();
  STATDB_ASSIGN_OR_RETURN(Node node, LoadNode(pid));
  if (node.is_leaf) {
    auto& entries = node.leaf.entries;
    auto it = std::lower_bound(
        entries.begin(), entries.end(), key,
        [](const auto& e, const std::string& k) { return e.first < k; });
    if (it != entries.end() && it->first == key) {
      it->second = value;
      *inserted_new = false;
    } else {
      entries.insert(it, {key, value});
      *inserted_new = true;
    }
    if (SerializedSize(node) <= kNodeCapacity) {
      STATDB_RETURN_IF_ERROR(StoreNode(pid, node));
      return std::optional<SplitResult>();
    }
    // Split the leaf at the byte-balanced point, not the entry-count
    // midpoint: with mixed record sizes (scalar summary entries next to
    // near-kMaxValueSize histogram payloads) a count split can leave one
    // half still over capacity. Pick the most balanced split where both
    // halves fit.
    constexpr size_t kLeafHeader = 1 + 4 + 8;  // is_leaf + count + next
    size_t total = SerializedSize(node);
    size_t mid = 0;
    size_t best_imbalance = total;  // anything valid beats this
    size_t left_bytes = kLeafHeader;
    for (size_t i = 1; i < entries.size(); ++i) {
      const auto& [k, v] = entries[i - 1];
      left_bytes += 4 + k.size() + 4 + v.size();
      size_t right_bytes = total - left_bytes + kLeafHeader;
      if (left_bytes > kNodeCapacity || right_bytes > kNodeCapacity) {
        continue;
      }
      size_t imbalance = left_bytes > right_bytes
                             ? left_bytes - right_bytes
                             : right_bytes - left_bytes;
      if (mid == 0 || imbalance < best_imbalance) {
        mid = i;
        best_imbalance = imbalance;
      }
    }
    if (mid == 0) {
      // No single split fits both halves (can only happen if an entry
      // approaches the page size on its own, which kMaxValueSize
      // forbids) — surface it rather than store a corrupt node.
      return InternalError("B+-tree leaf unsplittable");
    }
    Node right;
    right.is_leaf = true;
    right.leaf.entries.assign(entries.begin() + mid, entries.end());
    entries.erase(entries.begin() + mid, entries.end());
    right.leaf.next = node.leaf.next;
    STATDB_ASSIGN_OR_RETURN(PageId right_pid, AllocNode(right));
    node.leaf.next = right_pid;
    STATDB_RETURN_IF_ERROR(StoreNode(pid, node));
    return std::optional<SplitResult>(
        SplitResult{right.leaf.entries.front().first, right_pid});
  }
  // Internal node: descend, then absorb a child split if one happened.
  auto& keys = node.internal.keys;
  size_t idx = std::upper_bound(keys.begin(), keys.end(), key) - keys.begin();
  STATDB_ASSIGN_OR_RETURN(
      std::optional<SplitResult> child_split,
      InsertRec(node.internal.children[idx], key, value, inserted_new,
                depth + 1));
  if (!child_split.has_value()) {
    return std::optional<SplitResult>();
  }
  keys.insert(keys.begin() + idx, child_split->separator);
  node.internal.children.insert(node.internal.children.begin() + idx + 1,
                                child_split->right);
  if (SerializedSize(node) <= kNodeCapacity) {
    STATDB_RETURN_IF_ERROR(StoreNode(pid, node));
    return std::optional<SplitResult>();
  }
  // Split the internal node: the middle separator is promoted, not kept.
  size_t mid = keys.size() / 2;
  std::string promoted = keys[mid];
  Node right;
  right.is_leaf = false;
  right.internal.keys.assign(keys.begin() + mid + 1, keys.end());
  right.internal.children.assign(node.internal.children.begin() + mid + 1,
                                 node.internal.children.end());
  keys.erase(keys.begin() + mid, keys.end());
  node.internal.children.erase(node.internal.children.begin() + mid + 1,
                               node.internal.children.end());
  STATDB_ASSIGN_OR_RETURN(PageId right_pid, AllocNode(right));
  STATDB_RETURN_IF_ERROR(StoreNode(pid, node));
  return std::optional<SplitResult>(SplitResult{promoted, right_pid});
}

Status BPlusTree::Put(const std::string& key, const std::string& value) {
  if (key.size() > kMaxKeySize) {
    return InvalidArgumentError("B+-tree key too large");
  }
  if (value.size() > kMaxValueSize) {
    return InvalidArgumentError("B+-tree value too large");
  }
  bool inserted_new = false;
  STATDB_ASSIGN_OR_RETURN(std::optional<SplitResult> split,
                          InsertRec(root_, key, value, &inserted_new, 0));
  if (split.has_value()) {
    Node new_root;
    new_root.is_leaf = false;
    new_root.internal.keys.push_back(split->separator);
    new_root.internal.children.push_back(root_);
    new_root.internal.children.push_back(split->right);
    STATDB_ASSIGN_OR_RETURN(root_, AllocNode(new_root));
  }
  if (inserted_new) ++size_;
  return Status::OK();
}

Status BPlusTree::Delete(const std::string& key) {
  STATDB_ASSIGN_OR_RETURN(PageId leaf_pid, FindLeaf(key));
  STATDB_ASSIGN_OR_RETURN(Node node, LoadNode(leaf_pid));
  auto& entries = node.leaf.entries;
  auto it = std::lower_bound(
      entries.begin(), entries.end(), key,
      [](const auto& e, const std::string& k) { return e.first < k; });
  if (it == entries.end() || it->first != key) {
    return NotFoundError("key not in B+-tree");
  }
  entries.erase(it);
  STATDB_RETURN_IF_ERROR(StoreNode(leaf_pid, node));
  --size_;
  return Status::OK();
}

Status BPlusTree::ScanRange(
    const std::string& lo, const std::string& hi,
    const std::function<bool(const std::string&, const std::string&)>& fn)
    const {
  STATDB_ASSIGN_OR_RETURN(PageId pid, FindLeaf(lo));
  // A chain longer than the device has pages is a cycle.
  const uint64_t max_leaves = pool_->device_page_count();
  for (uint64_t leaves = 0; pid != kInvalidPageId; ++leaves) {
    if (leaves == max_leaves) {
      return DataLossError("B+-tree leaf chain longer than the device");
    }
    STATDB_ASSIGN_OR_RETURN(Node node, LoadNode(pid));
    for (const auto& [k, v] : node.leaf.entries) {
      if (k < lo) continue;
      if (!hi.empty() && k >= hi) return Status::OK();
      if (!fn(k, v)) return Status::OK();
    }
    pid = node.leaf.next;
  }
  return Status::OK();
}

Status BPlusTree::ScanPrefix(
    const std::string& prefix,
    const std::function<bool(const std::string&, const std::string&)>& fn)
    const {
  return ScanRange(
      prefix, /*hi=*/"",
      [&prefix, &fn](const std::string& k, const std::string& v) {
        if (k.compare(0, prefix.size(), prefix) != 0) return false;
        return fn(k, v);
      });
}

Result<int> BPlusTree::Height() const {
  PageId pid = root_;
  for (int h = 1; h <= kMaxHeight; ++h) {
    STATDB_ASSIGN_OR_RETURN(Node node, LoadNode(pid));
    if (node.is_leaf) return h;
    pid = node.internal.children[0];
  }
  return TooDeep();
}

}  // namespace statdb
