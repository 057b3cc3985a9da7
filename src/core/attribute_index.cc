#include "core/attribute_index.h"

#include <cstring>

#include "relational/key_encoding.h"

namespace statdb {

namespace {

void AppendRowBigEndian(uint64_t row, std::string* out) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out->push_back(char(uint8_t(row >> shift)));
  }
}

}  // namespace

std::string AttributeIndex::EntryKey(const Value& v, uint64_t row) {
  std::string key = OrderedEncode(v);
  key.push_back('\x00');  // value/row separator keeps prefixes unambiguous
  AppendRowBigEndian(row, &key);
  return key;
}

Result<std::unique_ptr<AttributeIndex>> AttributeIndex::Build(
    const ConcreteView& view, const std::string& attribute,
    BufferPool* pool) {
  STATDB_ASSIGN_OR_RETURN(std::unique_ptr<BPlusTree> tree,
                          BPlusTree::Create(pool));
  STATDB_ASSIGN_OR_RETURN(std::vector<Value> column,
                          view.ReadColumn(attribute));
  for (uint64_t row = 0; row < column.size(); ++row) {
    STATDB_RETURN_IF_ERROR(tree->Put(EntryKey(column[row], row), ""));
  }
  return std::unique_ptr<AttributeIndex>(
      new AttributeIndex(attribute, std::move(tree)));
}

Status AttributeIndex::ForEachEqual(
    const Value& v, const std::function<Status(uint64_t)>& fn) const {
  std::string prefix = OrderedEncode(v);
  prefix.push_back('\x00');
  Status inner = Status::OK();
  STATDB_RETURN_IF_ERROR(tree_->ScanPrefix(
      prefix, [&](const std::string& key, const std::string&) {
        uint64_t row = 0;
        for (size_t i = key.size() - 8; i < key.size(); ++i) {
          row = (row << 8) | uint8_t(key[i]);
        }
        inner = fn(row);
        return inner.ok();
      }));
  return inner;
}

Status AttributeIndex::ForEachInRange(
    const Value& lo, const Value& hi,
    const std::function<Status(uint64_t)>& fn) const {
  if (lo.is_null() || hi.is_null()) {
    return InvalidArgumentError("range bounds must be non-null");
  }
  std::string lo_key = OrderedEncode(lo);  // before any (lo, row) entry
  std::string hi_key = OrderedEncode(hi);
  hi_key.push_back('\x01');  // just past every (hi, row) entry
  Status inner = Status::OK();
  STATDB_RETURN_IF_ERROR(tree_->ScanRange(
      lo_key, hi_key, [&](const std::string& key, const std::string&) {
        if (key.empty() || key[0] == '\x00') return true;  // null rank
        uint64_t row = 0;
        for (size_t i = key.size() - 8; i < key.size(); ++i) {
          row = (row << 8) | uint8_t(key[i]);
        }
        inner = fn(row);
        return inner.ok();
      }));
  return inner;
}

Result<uint64_t> AttributeIndex::CountEqual(const Value& v) const {
  uint64_t count = 0;
  STATDB_RETURN_IF_ERROR(ForEachEqual(v, [&count](uint64_t) {
    ++count;
    return Status::OK();
  }));
  return count;
}

Result<uint64_t> AttributeIndex::CountInRange(const Value& lo,
                                              const Value& hi) const {
  uint64_t count = 0;
  STATDB_RETURN_IF_ERROR(ForEachInRange(lo, hi, [&count](uint64_t) {
    ++count;
    return Status::OK();
  }));
  return count;
}

Status AttributeIndex::Install(const ColumnChange& change,
                               const ConcreteView& view, bool undo) {
  for (const RawChange& c : change.cells) {
    const Value from = view.DecodeCell(change.column,
                                       undo ? c.new_cell() : c.old_cell());
    const Value to = view.DecodeCell(change.column,
                                     undo ? c.old_cell() : c.new_cell());
    STATDB_RETURN_IF_ERROR(tree_->Delete(EntryKey(from, c.row())));
    STATDB_RETURN_IF_ERROR(tree_->Put(EntryKey(to, c.row()), ""));
  }
  return Status::OK();
}

}  // namespace statdb
