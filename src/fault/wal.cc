#include "fault/wal.h"

#include <algorithm>
#include <cstring>

#include "common/bytes.h"
#include "common/checksum.h"

namespace statdb {
namespace {

constexpr uint32_t kWalMagic = 0x57414C52;  // "WALR"
// Frame overhead around a body: u32 length prefix + u32 trailing CRC.
constexpr uint64_t kFrameOverhead = 8;
// A record below this is structurally impossible (magic + lsn + empty
// hint + zero pages + empty manifest).
constexpr uint32_t kMinBodyLen = 4 + 8 + 4 + 4 + 4;
// Defensive cap so a garbage length field cannot drive a huge read.
constexpr uint32_t kMaxBodyLen = 1u << 30;

constexpr int kIoRetries = 3;

// Bounded retry for transient (UNAVAILABLE) device errors. The WAL talks
// to its device directly — no buffer pool in between to absorb them.
template <typename Op>
Status RetryIo(const Op& op) {
  Status s = op();
  for (int i = 0; i < kIoRetries && s.code() == StatusCode::kUnavailable;
       ++i) {
    s = op();
  }
  return s;
}

}  // namespace

std::vector<uint8_t> RedoLog::SerializeBody(const WalRecord& record) {
  ByteWriter w;
  w.PutU32(kWalMagic);
  w.PutU64(record.lsn);
  w.PutString(record.attr_hint);
  w.PutU32(static_cast<uint32_t>(record.pages.size()));
  for (const auto& [pid, page] : record.pages) {
    w.PutU64(pid);
    w.PutU32(page.header.checksum);
    w.PutU32(page.header.flags);
    w.PutU64(page.header.lsn);
    w.PutRaw(page.data.data(), kPageSize);
  }
  w.PutU32(static_cast<uint32_t>(record.manifest.size()));
  w.PutRaw(record.manifest.data(), record.manifest.size());
  return w.Take();
}

namespace {

// ParseBody's parse, before its failures are all made DATA_LOSS.
Result<WalRecord> DecodeBody(const std::vector<uint8_t>& body) {
  ByteReader r(body);
  STATDB_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kWalMagic) {
    return DataLossError("wal record magic mismatch");
  }
  WalRecord rec;
  STATDB_ASSIGN_OR_RETURN(rec.lsn, r.GetU64());
  STATDB_ASSIGN_OR_RETURN(rec.attr_hint, r.GetString());
  // Each page image: pid, checksum, flags, lsn, data.
  constexpr size_t kPageImageBytes = 8 + 4 + 4 + 8 + kPageSize;
  STATDB_ASSIGN_OR_RETURN(uint32_t npages, r.GetCount(kPageImageBytes));
  rec.pages.reserve(npages);
  for (uint32_t i = 0; i < npages; ++i) {
    STATDB_ASSIGN_OR_RETURN(PageId pid, r.GetU64());
    Page page;
    STATDB_ASSIGN_OR_RETURN(page.header.checksum, r.GetU32());
    STATDB_ASSIGN_OR_RETURN(page.header.flags, r.GetU32());
    STATDB_ASSIGN_OR_RETURN(page.header.lsn, r.GetU64());
    STATDB_ASSIGN_OR_RETURN(const uint8_t* data, r.GetRaw(kPageSize));
    std::memcpy(page.data.data(), data, kPageSize);
    rec.pages.emplace_back(pid, std::move(page));
  }
  STATDB_ASSIGN_OR_RETURN(uint32_t mlen, r.GetU32());
  STATDB_ASSIGN_OR_RETURN(const uint8_t* mdata, r.GetRaw(mlen));
  rec.manifest.assign(mdata, mdata + mlen);
  if (!r.exhausted()) {
    return DataLossError("wal record body has trailing bytes");
  }
  return rec;
}

}  // namespace

Result<WalRecord> RedoLog::ParseBody(const std::vector<uint8_t>& body) {
  return AsDataLoss(DecodeBody(body));
}

Status RedoLog::ReadStream(uint64_t offset, uint64_t len, uint8_t* out) {
  uint64_t pos = offset;
  uint64_t done = 0;
  Page scratch;
  while (done < len) {
    const PageId pid = pos / kPageSize;
    const uint64_t in_page = pos % kPageSize;
    const uint64_t take = std::min<uint64_t>(kPageSize - in_page, len - done);
    STATDB_RETURN_IF_ERROR(
        RetryIo([&] { return device_->ReadPage(pid, &scratch); }));
    std::memcpy(out + done, scratch.data.data() + in_page, take);
    pos += take;
    done += take;
  }
  return Status::OK();
}

Status RedoLog::WriteStream(uint64_t offset,
                            const std::vector<uint8_t>& bytes) {
  uint64_t pos = offset;
  uint64_t done = 0;
  Page scratch;
  while (done < bytes.size()) {
    const PageId pid = pos / kPageSize;
    const uint64_t in_page = pos % kPageSize;
    const uint64_t take =
        std::min<uint64_t>(kPageSize - in_page, bytes.size() - done);
    while (device_->page_count() <= pid) {
      device_->AllocatePage();
    }
    if (in_page != 0 || take != kPageSize) {
      // Partial page: preserve the bytes around the written range (the
      // head holds the previous record's tail).
      STATDB_RETURN_IF_ERROR(
          RetryIo([&] { return device_->ReadPage(pid, &scratch); }));
    } else {
      scratch.Zero();
    }
    std::memcpy(scratch.data.data() + in_page, bytes.data() + done, take);
    STATDB_RETURN_IF_ERROR(
        RetryIo([&] { return device_->WritePage(pid, scratch); }));
    pos += take;
    done += take;
  }
  return Status::OK();
}

Result<WalScanResult> RedoLog::Open() {
  MutexLock lock(mu_);
  WalScanResult result;
  last_lsn_ = 0;
  const uint64_t total = device_->page_count() * kPageSize;
  uint64_t off = 0;
  uint64_t torn_at_off = 0;
  uint64_t lsn_floor = 0;

  // The lambda touches no guarded state (the analysis cannot see a
  // closure's capability context); torn-tail byte accounting lands after
  // the scan loop.
  auto mark_torn = [&](uint64_t torn_at) {
    result.torn_tail = true;
    torn_at_off = torn_at;
    // Best effort: the hint sits right after magic+lsn at the front of
    // the body, so it often survives a tear of the later page images.
    const uint64_t avail = total - torn_at;
    if (avail > 4) {
      std::vector<uint8_t> prefix(
          std::min<uint64_t>(avail - 4, 4 + 8 + 4 + 512));
      if (ReadStream(torn_at + 4, prefix.size(), prefix.data()).ok()) {
        ByteReader r(prefix);
        auto magic = r.GetU32();
        if (magic.ok() && magic.value() == kWalMagic) {
          auto lsn = r.GetU64();
          auto hint = lsn.ok() ? r.GetString() : lsn.status();
          if (hint.ok()) result.torn_attr_hint = hint.value();
        }
      }
    }
  };

  while (off + kFrameOverhead <= total) {
    uint8_t len_buf[4];
    STATDB_RETURN_IF_ERROR(ReadStream(off, 4, len_buf));
    uint32_t body_len = 0;
    std::memcpy(&body_len, len_buf, 4);
    if (body_len == 0) break;  // zeroed space: clean end of log
    if (body_len < kMinBodyLen || body_len > kMaxBodyLen ||
        off + kFrameOverhead + body_len > total) {
      mark_torn(off);
      break;
    }
    std::vector<uint8_t> body(body_len);
    STATDB_RETURN_IF_ERROR(ReadStream(off + 4, body_len, body.data()));
    uint8_t crc_buf[4];
    STATDB_RETURN_IF_ERROR(ReadStream(off + 4 + body_len, 4, crc_buf));
    uint32_t stored_crc = 0;
    std::memcpy(&stored_crc, crc_buf, 4);
    if (Crc32c(body.data(), body.size()) != stored_crc) {
      mark_torn(off);
      break;
    }
    Result<WalRecord> rec = ParseBody(body);
    if (!rec.ok()) {
      mark_torn(off);
      break;
    }
    // Stale bytes from an earlier, longer log generation (or replayed
    // noise) must not extend the stream: LSNs are strictly increasing.
    if (rec.value().lsn <= lsn_floor) {
      mark_torn(off);
      break;
    }
    lsn_floor = rec.value().lsn;
    off += kFrameOverhead + body_len;
    ++stats_.records_recovered;
    result.records.push_back(std::move(rec).value());
  }

  if (result.torn_tail) stats_.torn_tail_bytes = total - torn_at_off;
  last_lsn_ = lsn_floor;
  append_offset_ = off;
  return result;
}

Status RedoLog::Append(const WalRecord& record) {
  MutexLock lock(mu_);
  if (record.lsn <= last_lsn_) {
    return InvalidArgumentError("wal append with non-increasing lsn");
  }
  std::vector<uint8_t> body = SerializeBody(record);
  ByteWriter frame;
  frame.PutU32(static_cast<uint32_t>(body.size()));
  frame.PutRaw(body.data(), body.size());
  frame.PutU32(Crc32c(body.data(), body.size()));
  const std::vector<uint8_t> bytes = frame.Take();
  // On failure the cursor stays put: the partial frame is dead bytes that
  // either get overwritten by the next append or discarded as a torn
  // tail by the next Open().
  STATDB_RETURN_IF_ERROR(WriteStream(append_offset_, bytes));
  append_offset_ += bytes.size();
  last_lsn_ = record.lsn;
  ++stats_.records_appended;
  stats_.bytes_appended += bytes.size();
  return Status::OK();
}

}  // namespace statdb
