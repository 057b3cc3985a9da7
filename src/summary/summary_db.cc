#include "summary/summary_db.h"

#include <algorithm>

#include "common/bytes.h"

namespace statdb {

namespace {

// Record-key separators (never appear in attribute/function names);
// canonical values live on SummaryDatabase so the auditor shares them.
constexpr char kChunkSep = SummaryDatabase::kChunkSep;
constexpr char kRefSep = SummaryDatabase::kRefSep;

// Payload bytes stored inline in the head record / per chunk record.
constexpr size_t kInlinePayload = 1200;

constexpr uint8_t kFlagStale = 1;
constexpr uint8_t kFlagChunked = 2;

std::string ChunkKey(const std::string& encoded, uint32_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%06u", i);
  return encoded + kChunkSep + buf;
}

std::string RefKey(const std::string& attr, const std::string& encoded) {
  return attr + kRefSep + encoded;
}

struct Head {
  uint8_t flags = 0;
  uint64_t version = 0;
  uint32_t nchunks = 0;     // chunked only
  std::string inline_payload;  // non-chunked only

  bool stale() const { return flags & kFlagStale; }
  bool chunked() const { return flags & kFlagChunked; }
};

std::string EncodeHead(const Head& h) {
  ByteWriter w;
  w.PutU8(h.flags);
  w.PutU64(h.version);
  if (h.chunked()) {
    w.PutU32(h.nchunks);
  } else {
    w.PutU32(static_cast<uint32_t>(h.inline_payload.size()));
    w.PutRaw(h.inline_payload.data(), h.inline_payload.size());
  }
  const auto& b = w.bytes();
  return std::string(b.begin(), b.end());
}

Result<Head> DecodeHead(const std::string& value) {
  ByteReader r(reinterpret_cast<const uint8_t*>(value.data()), value.size());
  Head h;
  STATDB_ASSIGN_OR_RETURN(h.flags, r.GetU8());
  STATDB_ASSIGN_OR_RETURN(h.version, r.GetU64());
  if (h.chunked()) {
    STATDB_ASSIGN_OR_RETURN(h.nchunks, r.GetU32());
  } else {
    STATDB_ASSIGN_OR_RETURN(uint32_t len, r.GetU32());
    if (len != r.remaining()) {
      return DataLossError("summary head length mismatch");
    }
    h.inline_payload = value.substr(value.size() - len);
  }
  return h;
}

}  // namespace

Result<SummaryDatabase::HeadInfo> SummaryDatabase::DecodeHeadRecord(
    const std::string& value) {
  STATDB_ASSIGN_OR_RETURN(Head head, DecodeHead(value));
  HeadInfo info;
  info.stale = head.stale();
  info.chunked = head.chunked();
  info.view_version = head.version;
  info.nchunks = head.nchunks;
  info.inline_payload = std::move(head.inline_payload);
  return info;
}

Result<std::unique_ptr<SummaryDatabase>> SummaryDatabase::Create(
    BufferPool* pool) {
  STATDB_ASSIGN_OR_RETURN(std::unique_ptr<BPlusTree> tree,
                          BPlusTree::Create(pool));
  return std::unique_ptr<SummaryDatabase>(
      new SummaryDatabase(std::move(tree)));
}

std::string SummaryDatabase::LeadingAttribute(const std::string& encoded) {
  if (encoded.find(kChunkSep) != std::string::npos ||
      encoded.find(kRefSep) != std::string::npos) {
    return "";
  }
  size_t end = encoded.find_first_of(",|");
  if (end == std::string::npos) return "";
  return encoded.substr(0, end);
}

Result<SummaryEntry> SummaryDatabase::LoadEntry(
    const std::string& encoded_key, const std::string& head_value) {
  STATDB_ASSIGN_OR_RETURN(Head head, DecodeHead(head_value));
  std::string payload;
  if (head.chunked()) {
    for (uint32_t i = 0; i < head.nchunks; ++i) {
      STATDB_ASSIGN_OR_RETURN(std::string chunk,
                              tree_->Get(ChunkKey(encoded_key, i)));
      payload += chunk;
    }
  } else {
    payload = head.inline_payload;
  }
  SummaryEntry entry;
  STATDB_ASSIGN_OR_RETURN(entry.key, SummaryKey::Decode(encoded_key));
  std::vector<uint8_t> bytes(payload.begin(), payload.end());
  STATDB_ASSIGN_OR_RETURN(entry.result, SummaryResult::Deserialize(bytes));
  entry.view_version = head.version;
  entry.stale = head.stale();
  return entry;
}

Result<SummaryEntry> SummaryDatabase::Lookup(const SummaryKey& key) {
  {
    MutexLock lock(stats_mu_);
    ++stats_.lookups;
  }
  std::string encoded = key.Encode();
  Result<std::string> head_value = tree_->Get(encoded);
  if (!head_value.ok()) {
    MutexLock lock(stats_mu_);
    ++stats_.misses;
    return head_value.status();
  }
  STATDB_ASSIGN_OR_RETURN(SummaryEntry entry,
                          LoadEntry(encoded, head_value.value()));
  MutexLock lock(stats_mu_);
  if (entry.stale) {
    ++stats_.stale_hits;
  } else {
    ++stats_.hits;
  }
  return entry;
}

Status SummaryDatabase::StoreEntry(const SummaryKey& key,
                                   const SummaryResult& result,
                                   uint64_t view_version, bool stale) {
  std::string encoded = key.Encode();
  std::vector<uint8_t> payload_bytes = result.Serialize();
  std::string payload(payload_bytes.begin(), payload_bytes.end());
  Head head;
  head.version = view_version;
  if (stale) head.flags |= kFlagStale;
  if (payload.size() <= kInlinePayload) {
    head.inline_payload = payload;
    STATDB_RETURN_IF_ERROR(tree_->Put(encoded, EncodeHead(head)));
  } else {
    head.flags |= kFlagChunked;
    head.nchunks = static_cast<uint32_t>(
        (payload.size() + kInlinePayload - 1) / kInlinePayload);
    STATDB_RETURN_IF_ERROR(tree_->Put(encoded, EncodeHead(head)));
    for (uint32_t i = 0; i < head.nchunks; ++i) {
      size_t off = size_t(i) * kInlinePayload;
      STATDB_RETURN_IF_ERROR(tree_->Put(
          ChunkKey(encoded, i),
          payload.substr(off, std::min(kInlinePayload,
                                       payload.size() - off))));
    }
  }
  // Reference records so updates to non-leading attributes find us.
  for (size_t i = 1; i < key.attributes.size(); ++i) {
    STATDB_RETURN_IF_ERROR(
        tree_->Put(RefKey(key.attributes[i], encoded), ""));
  }
  return Status::OK();
}

Status SummaryDatabase::EraseChunksAndRefs(const SummaryKey& key) {
  std::string encoded = key.Encode();
  Result<std::string> head_value = tree_->Get(encoded);
  if (!head_value.ok()) return head_value.status();
  STATDB_ASSIGN_OR_RETURN(Head head, DecodeHead(head_value.value()));
  if (head.chunked()) {
    for (uint32_t i = 0; i < head.nchunks; ++i) {
      STATDB_RETURN_IF_ERROR(tree_->Delete(ChunkKey(encoded, i)));
    }
  }
  for (size_t i = 1; i < key.attributes.size(); ++i) {
    // Reference records are shared per (attr, key); ignore NOT_FOUND in
    // case an earlier partial remove already cleared one.
    Status s = tree_->Delete(RefKey(key.attributes[i], encoded));
    if (!s.ok() && s.code() != StatusCode::kNotFound) return s;
  }
  return Status::OK();
}

Status SummaryDatabase::Insert(const SummaryKey& key,
                               const SummaryResult& result,
                               uint64_t view_version) {
  std::string encoded = key.Encode();
  bool existed = tree_->Get(encoded).ok();
  if (existed) {
    STATDB_RETURN_IF_ERROR(EraseChunksAndRefs(key));
  }
  STATDB_RETURN_IF_ERROR(StoreEntry(key, result, view_version,
                                    /*stale=*/false));
  MutexLock lock(stats_mu_);
  if (!existed) ++entry_count_;
  ++stats_.inserts;
  return Status::OK();
}

Status SummaryDatabase::Refresh(const SummaryKey& key,
                                const SummaryResult& result,
                                uint64_t view_version) {
  if (!tree_->Get(key.Encode()).ok()) {
    return NotFoundError("refresh of uncached entry " + key.ToString());
  }
  STATDB_RETURN_IF_ERROR(EraseChunksAndRefs(key));
  return StoreEntry(key, result, view_version, /*stale=*/false);
}

Status SummaryDatabase::MarkStale(const SummaryKey& key) {
  std::string encoded = key.Encode();
  STATDB_ASSIGN_OR_RETURN(std::string head_value, tree_->Get(encoded));
  STATDB_ASSIGN_OR_RETURN(Head head, DecodeHead(head_value));
  head.flags |= kFlagStale;
  return tree_->Put(encoded, EncodeHead(head));
}

Result<std::vector<std::string>> SummaryDatabase::PrimariesOn(
    const std::string& attribute) {
  std::vector<std::string> primaries;
  STATDB_RETURN_IF_ERROR(tree_->ScanPrefix(
      attribute, [&](const std::string& k, const std::string&) {
        if (LeadingAttribute(k) == attribute) {
          primaries.push_back(k);
        } else if (k.size() > attribute.size() &&
                   k[attribute.size()] == kRefSep &&
                   k.compare(0, attribute.size(), attribute) == 0) {
          std::string encoded = k.substr(attribute.size() + 1);
          // A key naming `attribute` again past its lead (a pair over one
          // attribute twice) is listed once, by its primary record.
          if (LeadingAttribute(encoded) != attribute) {
            primaries.push_back(std::move(encoded));
          }
        }
        return true;
      }));
  return primaries;
}

Result<uint64_t> SummaryDatabase::InvalidateAttribute(
    const std::string& attribute) {
  // Phase 1: collect matching primary keys (no mutation during the scan).
  STATDB_ASSIGN_OR_RETURN(std::vector<std::string> primaries,
                          PrimariesOn(attribute));
  uint64_t marked = 0;
  for (const std::string& encoded : primaries) {
    STATDB_ASSIGN_OR_RETURN(std::string head_value, tree_->Get(encoded));
    STATDB_ASSIGN_OR_RETURN(Head head, DecodeHead(head_value));
    if (!head.stale()) {
      head.flags |= kFlagStale;
      STATDB_RETURN_IF_ERROR(tree_->Put(encoded, EncodeHead(head)));
      ++marked;
    }
  }
  MutexLock lock(stats_mu_);
  stats_.invalidated += marked;
  return marked;
}

Result<uint64_t> SummaryDatabase::ClampVersions(uint64_t max_version) {
  std::vector<std::string> primaries;
  STATDB_RETURN_IF_ERROR(tree_->ScanRange(
      "", "", [&](const std::string& k, const std::string&) {
        if (!LeadingAttribute(k).empty()) primaries.push_back(k);
        return true;
      }));
  uint64_t capped = 0;
  for (const std::string& encoded : primaries) {
    STATDB_ASSIGN_OR_RETURN(std::string head_value, tree_->Get(encoded));
    STATDB_ASSIGN_OR_RETURN(Head head, DecodeHead(head_value));
    if (head.version > max_version) {
      head.version = max_version;
      STATDB_RETURN_IF_ERROR(tree_->Put(encoded, EncodeHead(head)));
      ++capped;
    }
  }
  return capped;
}

Status SummaryDatabase::Remove(const SummaryKey& key) {
  std::string encoded = key.Encode();
  if (!tree_->Get(encoded).ok()) {
    return NotFoundError("no cached entry " + key.ToString());
  }
  STATDB_RETURN_IF_ERROR(EraseChunksAndRefs(key));
  STATDB_RETURN_IF_ERROR(tree_->Delete(encoded));
  MutexLock lock(stats_mu_);
  --entry_count_;
  return Status::OK();
}

Status SummaryDatabase::ForEachOnAttribute(
    const std::string& attribute,
    const std::function<Status(const SummaryEntry&)>& fn) {
  STATDB_ASSIGN_OR_RETURN(std::vector<std::string> primaries,
                          PrimariesOn(attribute));
  for (const std::string& encoded : primaries) {
    STATDB_ASSIGN_OR_RETURN(std::string head_value, tree_->Get(encoded));
    STATDB_ASSIGN_OR_RETURN(SummaryEntry entry,
                            LoadEntry(encoded, head_value));
    STATDB_RETURN_IF_ERROR(fn(entry));
  }
  return Status::OK();
}

Status SummaryDatabase::ForEach(
    const std::function<Status(const SummaryEntry&)>& fn) {
  std::vector<std::string> primaries;
  STATDB_RETURN_IF_ERROR(tree_->ScanRange(
      "", "", [&](const std::string& k, const std::string&) {
        if (!LeadingAttribute(k).empty()) primaries.push_back(k);
        return true;
      }));
  for (const std::string& encoded : primaries) {
    STATDB_ASSIGN_OR_RETURN(std::string head_value, tree_->Get(encoded));
    STATDB_ASSIGN_OR_RETURN(SummaryEntry entry,
                            LoadEntry(encoded, head_value));
    STATDB_RETURN_IF_ERROR(fn(entry));
  }
  return Status::OK();
}

}  // namespace statdb
