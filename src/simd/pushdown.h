#ifndef STATDB_SIMD_PUSHDOWN_H_
#define STATDB_SIMD_PUSHDOWN_H_

#include <cstddef>
#include <cstdint>

#include "simd/kernels.h"
#include "storage/rle.h"

namespace statdb::simd {

/// Predicate/aggregate pushdown over RLE runs (DESIGN.md §14): the §4.3
/// "database machine" scan offload generalized into a filtered aggregate
/// that never materializes rows. A predicate on the scanned attribute is
/// decided once per run — a matching run of length k contributes k rows
/// in O(1) — and runs are clipped to a row interval so callers can split
/// work at arbitrary boundaries (chunked scans, predicates that split a
/// run mid-way).

/// Per-run predicate on the decoded double value. Comparisons follow
/// IEEE semantics, so a NaN cell matches only kAll — exactly what the
/// filter-then-materialize path's double comparisons do.
struct RunPredicate {
  enum class Kind : uint8_t {
    kAll = 0,    // every non-missing cell
    kEqual = 1,  // value == equal
    kRange = 2,  // lo <= value <= hi (closed)
  };
  Kind kind = Kind::kAll;
  double equal = 0;
  double lo = 0;
  double hi = 0;

  bool Matches(double v) const {
    switch (kind) {
      case Kind::kAll: return true;
      case Kind::kEqual: return v == equal;
      case Kind::kRange: return v >= lo && v <= hi;
    }
    return false;
  }
};

/// Compacts data[0, n) in place to the values `pred` matches, in order,
/// and returns how many: the same values a per-value Matches filter
/// keeps. Every value is stored and the write position advances past
/// the matches only, so the loop has no branch per value.
size_t KeepMatching(const RunPredicate& pred, double* data, size_t n);

/// A decoded, clipped, predicate-matching run: `value` repeated `length`
/// times.
struct MatchedRun {
  double value = 0;
  uint64_t length = 0;
};

/// Filters `runs` (whose first cell has row ordinal `run_start_row`)
/// against `pred`, clipped to rows [row_begin, row_end). Missing runs
/// (present == false) never match. Writes at most `n` MatchedRun records
/// to `out` (caller-sized) and returns how many were written. A run
/// straddling an interval edge is split: only its in-interval cells
/// count.
size_t FilterRuns(const RleRun* runs, size_t n, RunValueKind kind,
                  uint64_t run_start_row, uint64_t row_begin,
                  uint64_t row_end, const RunPredicate& pred,
                  MatchedRun* out);

/// Total rows across matched runs.
uint64_t MatchedRowCount(const MatchedRun* runs, size_t n);

/// Descriptive statistics over matched runs, same compressed-domain math
/// and NaN contract as DescribeRuns (count/min/max exact, moments
/// tolerance-class vs. a per-cell oracle, deterministic run order).
DescriptiveStats DescribeMatchedRuns(const MatchedRun* runs, size_t n);

}  // namespace statdb::simd

#endif  // STATDB_SIMD_PUSHDOWN_H_
