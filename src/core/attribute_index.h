#ifndef STATDB_CORE_ATTRIBUTE_INDEX_H_
#define STATDB_CORE_ATTRIBUTE_INDEX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "core/view.h"
#include "storage/btree.h"

namespace statdb {

/// A secondary index over one view attribute — §2.3: reference-pattern
/// information "can then be used, for example, to create auxiliary
/// storage structures such as indices". Entries map
/// `OrderedEncode(value) ++ big-endian(row)` → "" in a paged B+-tree, so
/// equality and range predicates enumerate matching rows without a
/// column scan. The DBMS maintains the index under predicate updates and
/// rollback; missing (null) cells are indexed under the null rank so
/// "IS NULL" probes work too.
class AttributeIndex {
 public:
  /// Builds the index from the view's current column contents.
  static Result<std::unique_ptr<AttributeIndex>> Build(
      const ConcreteView& view, const std::string& attribute,
      BufferPool* pool);

  AttributeIndex(const AttributeIndex&) = delete;
  AttributeIndex& operator=(const AttributeIndex&) = delete;

  const std::string& attribute() const { return attribute_; }
  uint64_t entry_count() const { return tree_->size(); }

  /// Visits every row whose cell equals `v` (including v = null).
  Status ForEachEqual(const Value& v,
                      const std::function<Status(uint64_t row)>& fn) const;

  /// Visits every row whose cell lies in [lo, hi] (both inclusive,
  /// nulls excluded).
  Status ForEachInRange(const Value& lo, const Value& hi,
                        const std::function<Status(uint64_t row)>& fn) const;

  /// Count variants of the above.
  Result<uint64_t> CountEqual(const Value& v) const;
  Result<uint64_t> CountInRange(const Value& lo, const Value& hi) const;

  /// Maintains the index after `change` was installed in `view` (its
  /// inverse when `undo`): each changed row, ascending, moves from its
  /// old key to its new one.
  Status Install(const ColumnChange& change, const ConcreteView& view,
                 bool undo = false);

 private:
  AttributeIndex(std::string attribute, std::unique_ptr<BPlusTree> tree)
      : attribute_(std::move(attribute)), tree_(std::move(tree)) {}

  static std::string EntryKey(const Value& v, uint64_t row);

  std::string attribute_;
  std::unique_ptr<BPlusTree> tree_;
};

}  // namespace statdb

#endif  // STATDB_CORE_ATTRIBUTE_INDEX_H_
