#include "common/checksum.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define STATDB_CRC32C_SSE42 1
#endif

namespace statdb {
namespace {

// Table for the reflected Castagnoli polynomial, built once at startup.
std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = BuildTable();
  return table;
}

#if defined(STATDB_CRC32C_SSE42)
// The SSE4.2 crc32 instruction computes the same reflected Castagnoli
// CRC, eight bytes per step. Loads go through memcpy: `data` carries no
// alignment promise.
__attribute__((target("sse4.2"))) uint32_t Crc32cExtendSse42(
    uint32_t state, const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t crc = state;
  for (; len >= 8; p += 8, len -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto tail = static_cast<uint32_t>(crc);
  for (; len > 0; ++p, --len) tail = _mm_crc32_u8(tail, *p);
  return tail;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, const void*, size_t);

ExtendFn ChooseExtend() {
#if defined(STATDB_CRC32C_SSE42)
  if (__builtin_cpu_supports("sse4.2") != 0) return Crc32cExtendSse42;
#endif
  return Crc32cExtendPortable;
}

}  // namespace

uint32_t Crc32cExtendPortable(uint32_t state, const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  const auto& table = Table();
  for (size_t i = 0; i < len; ++i) {
    state = table[(state ^ p[i]) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

uint32_t Crc32cExtend(uint32_t state, const void* data, size_t len) {
  static const ExtendFn extend = ChooseExtend();
  return extend(state, data, len);
}

uint32_t Crc32c(const void* data, size_t len) {
  return Crc32cExtend(kCrc32cInit, data, len) ^ kCrc32cXorOut;
}

}  // namespace statdb
