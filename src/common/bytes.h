#ifndef STATDB_COMMON_BYTES_H_
#define STATDB_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace statdb {

/// Append-only little-endian binary encoder used for Summary-Database
/// results, page payloads and catalog records.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }
  /// LEB128: seven bits a byte, low first; 1 byte below 128, at most 10.
  void PutVarint(uint64_t v) {
    for (; v >= 0x80; v >>= 7) PutU8(uint8_t(v | 0x80));
    PutU8(uint8_t(v));
  }

  /// Length-prefixed string (u32 length + bytes).
  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutRaw(s.data(), s.size());
  }

  void PutRaw(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
};

/// Sequential decoder over a byte span; every getter bounds-checks and
/// returns OUT_OF_RANGE on truncated input rather than reading past the
/// end (cached results live on storage pages and could be damaged).
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  Result<uint8_t> GetU8();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  Result<double> GetDouble();
  Result<std::string> GetString();
  /// PutVarint's value; DATA_LOSS for more than 64 bits.
  Result<uint64_t> GetVarint();

  /// Reads a u32 element count for a sequence whose elements encode to
  /// at least `min_elem_bytes` each. DATA_LOSS when that many elements
  /// cannot fit in the bytes that remain, so a decoder may size a
  /// container by the count without trusting the bytes it came from.
  Result<uint32_t> GetCount(size_t min_elem_bytes);

  /// Borrows `n` raw bytes (valid while the underlying buffer lives) and
  /// advances past them.
  Result<const uint8_t*> GetRaw(size_t n) {
    STATDB_RETURN_IF_ERROR(Need(n));
    const uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ == size_; }

 private:
  Status Need(size_t n) {
    if (pos_ + n > size_) {
      return OutOfRangeError("truncated byte buffer");
    }
    return Status::OK();
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// A decoder's verdict on stored bytes it could not parse. Every failure
/// of a decode is damage to those bytes, so it is DATA_LOSS: a getter's
/// OUT_OF_RANGE only says where the damaged input ran out.
inline Status AsDataLoss(const Status& s) {
  if (s.ok() || s.code() == StatusCode::kDataLoss) return s;
  return DataLossError(s.message());
}
template <typename T>
Result<T> AsDataLoss(Result<T> r) {
  if (r.ok()) return r;
  return AsDataLoss(r.status());
}

}  // namespace statdb

#endif  // STATDB_COMMON_BYTES_H_
