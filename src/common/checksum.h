#ifndef STATDB_COMMON_CHECKSUM_H_
#define STATDB_COMMON_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace statdb {

/// CRC-32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) —
/// the checksum used for page verification and WAL record framing.
/// It runs on every buffer-pool miss, so it sits on the scan path: on
/// x86-64 CPUs with SSE4.2 it uses the `crc32` instruction (about 0.5 µs
/// per 4 KiB page, against ~13 µs for the byte table). The path is chosen
/// once, from the CPU, on first use; everywhere else the portable table
/// below is the only path. Both compute the same value, so bytes stamped
/// by either verify under the other.
///
/// Properties relied on by callers:
///  - Crc32c(p, n) == 0x00000000 only for specific inputs, so a
///    never-stamped header (checksum field zero) is distinguished by the
///    kChecksummed flag, not by a magic CRC value.
///  - Detects all single-bit flips (CRC distance ≥ 2 for any length we
///    use), which is what the fault-injection tests assert.
uint32_t Crc32c(const void* data, size_t len);

/// Incremental form: continue a running CRC. `Crc32c(p, n)` equals
/// `Crc32cExtend(kCrc32cInit, p, n) ^ kCrc32cXorOut`.
inline constexpr uint32_t kCrc32cInit = 0xFFFFFFFFu;
inline constexpr uint32_t kCrc32cXorOut = 0xFFFFFFFFu;
uint32_t Crc32cExtend(uint32_t state, const void* data, size_t len);

/// Byte-at-a-time table form of `Crc32cExtend`: the fallback path, and
/// the reference the dispatched path is tested against.
uint32_t Crc32cExtendPortable(uint32_t state, const void* data, size_t len);

}  // namespace statdb

#endif  // STATDB_COMMON_CHECKSUM_H_
