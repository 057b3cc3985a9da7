#include "storage/rle.h"

#include "common/bytes.h"

namespace statdb {

std::vector<RleRun> RleEncode(
    const std::vector<std::optional<int64_t>>& cells) {
  std::vector<RleRun> runs;
  for (const auto& cell : cells) {
    bool present = cell.has_value();
    int64_t value = cell.value_or(0);
    if (!runs.empty() && runs.back().present == present &&
        (!present || runs.back().value == value) &&
        runs.back().length < UINT32_MAX) {
      ++runs.back().length;
    } else {
      runs.push_back(RleRun{value, 1, present});
    }
  }
  return runs;
}

std::vector<std::optional<int64_t>> RleDecode(const std::vector<RleRun>& runs) {
  std::vector<std::optional<int64_t>> cells;
  for (const RleRun& run : runs) {
    for (uint32_t i = 0; i < run.length; ++i) {
      if (run.present) {
        cells.emplace_back(run.value);
      } else {
        cells.emplace_back(std::nullopt);
      }
    }
  }
  return cells;
}

size_t RleEncodedBytes(const std::vector<RleRun>& runs) {
  return runs.size() * (sizeof(int64_t) + sizeof(uint32_t) + 1);
}

size_t RawColumnBytes(size_t cell_count) {
  return cell_count * sizeof(int64_t) + (cell_count + 7) / 8;
}

std::vector<uint8_t> SerializeRuns(const std::vector<RleRun>& runs) {
  ByteWriter w;
  w.PutU32(static_cast<uint32_t>(runs.size()));
  for (const RleRun& run : runs) {
    w.PutI64(run.value);
    w.PutU32(run.length);
    w.PutU8(run.present ? 1 : 0);
  }
  return w.Take();
}

Result<std::vector<RleRun>> DeserializeRuns(
    const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  // Each run: value, length, present flag.
  STATDB_ASSIGN_OR_RETURN(uint32_t n, r.GetCount(8 + 4 + 1));
  std::vector<RleRun> runs;
  runs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    RleRun run;
    STATDB_ASSIGN_OR_RETURN(run.value, r.GetI64());
    STATDB_ASSIGN_OR_RETURN(run.length, r.GetU32());
    STATDB_ASSIGN_OR_RETURN(uint8_t present, r.GetU8());
    run.present = present != 0;
    runs.push_back(run);
  }
  return runs;
}

}  // namespace statdb
