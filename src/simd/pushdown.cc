#include "simd/pushdown.h"

#include <algorithm>

#include "simd/kernels_internal.h"

namespace statdb::simd {

size_t FilterRuns(const RleRun* runs, size_t n, RunValueKind kind,
                  uint64_t run_start_row, uint64_t row_begin,
                  uint64_t row_end, const RunPredicate& pred,
                  MatchedRun* out) {
  size_t matched = 0;
  uint64_t ordinal = run_start_row;
  for (size_t i = 0; i < n; ++i) {
    const RleRun& r = runs[i];
    uint64_t begin = ordinal;
    uint64_t end = ordinal + r.length;
    ordinal = end;
    if (!r.present || r.length == 0) continue;
    // Clip the run to the requested row interval (splitting it when the
    // interval edge lands mid-run).
    uint64_t lo = std::max(begin, row_begin);
    uint64_t hi = std::min(end, row_end);
    if (lo >= hi) continue;
    double v = DecodeRunValue(r.value, kind);
    if (!pred.Matches(v)) continue;
    out[matched++] = MatchedRun{v, hi - lo};
  }
  return matched;
}

uint64_t MatchedRowCount(const MatchedRun* runs, size_t n) {
  uint64_t rows = 0;
  for (size_t i = 0; i < n; ++i) rows += runs[i].length;
  return rows;
}

DescriptiveStats DescribeMatchedRuns(const MatchedRun* runs, size_t n) {
  return internal::DescribeWeighted(
      n, [&](size_t i) { return runs[i].value; },
      [&](size_t i) { return runs[i].length; });
}

}  // namespace statdb::simd
