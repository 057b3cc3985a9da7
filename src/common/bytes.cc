#include "common/bytes.h"

namespace statdb {

Result<uint8_t> ByteReader::GetU8() {
  STATDB_RETURN_IF_ERROR(Need(1));
  return data_[pos_++];
}

Result<uint32_t> ByteReader::GetU32() {
  STATDB_RETURN_IF_ERROR(Need(sizeof(uint32_t)));
  uint32_t v;
  std::memcpy(&v, data_ + pos_, sizeof(v));
  pos_ += sizeof(v);
  return v;
}

Result<uint64_t> ByteReader::GetU64() {
  STATDB_RETURN_IF_ERROR(Need(sizeof(uint64_t)));
  uint64_t v;
  std::memcpy(&v, data_ + pos_, sizeof(v));
  pos_ += sizeof(v);
  return v;
}

Result<int64_t> ByteReader::GetI64() {
  STATDB_RETURN_IF_ERROR(Need(sizeof(int64_t)));
  int64_t v;
  std::memcpy(&v, data_ + pos_, sizeof(v));
  pos_ += sizeof(v);
  return v;
}

Result<double> ByteReader::GetDouble() {
  STATDB_RETURN_IF_ERROR(Need(sizeof(double)));
  double v;
  std::memcpy(&v, data_ + pos_, sizeof(v));
  pos_ += sizeof(v);
  return v;
}

Result<std::string> ByteReader::GetString() {
  STATDB_ASSIGN_OR_RETURN(uint32_t len, GetU32());
  STATDB_RETURN_IF_ERROR(Need(len));
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return s;
}

Result<uint64_t> ByteReader::GetVarint() {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    STATDB_ASSIGN_OR_RETURN(uint8_t byte, GetU8());
    // The tenth byte holds bit 63 only.
    if (shift == 63 && byte > 1) break;
    v |= uint64_t(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
  }
  return DataLossError("varint longer than 64 bits");
}

Result<uint32_t> ByteReader::GetCount(size_t min_elem_bytes) {
  STATDB_ASSIGN_OR_RETURN(uint32_t n, GetU32());
  if (uint64_t{n} * min_elem_bytes > remaining()) {
    return DataLossError("element count " + std::to_string(n) +
                         " exceeds the bytes that follow");
  }
  return n;
}

}  // namespace statdb
