#ifndef STATDB_SIMD_KERNELS_H_
#define STATDB_SIMD_KERNELS_H_

#include <bit>
#include <cstddef>
#include <cstdint>

#include "simd/dispatch.h"
#include "stats/descriptive.h"
#include "stats/partial_stats.h"
#include "storage/rle.h"

namespace statdb::simd {

/// Batch kernels over contiguous value spans and RLE run records
/// (DESIGN.md §14). By project rule (statdb_lint: simd-span-inputs)
/// nothing in src/simd/ takes a per-row callback: inputs are raw
/// pointer + length spans, outputs are plain mergeable partial states.
///
/// Reduction-order guarantee
/// -------------------------
/// Every span kernel accumulates through exactly FOUR logical lanes:
/// element i folds into lane i % 4, each lane sums sequentially in
/// element order, and the lanes combine as (l0 + l1) + (l2 + l3). The
/// scalar path keeps 4 named accumulators, the SSE2 path two __m128d
/// (lane pairs 0/1 and 2/3), the AVX2 path one __m256d — the same
/// additions in the same order, so all three ISA levels are
/// BIT-IDENTICAL, not merely close. Versus the serial Welford oracle
/// (ComputeDescriptive) the 4-lane order differs, so sum/mean/m2 agree
/// to the Chan-et-al. tolerance only; count and min/max are exact.
///
/// Moments use two passes (lane-summed mean, then lane-summed squared
/// deviations about it) rather than sumsq - sum²/n, so the kernel's m2
/// is at least as well-conditioned as Welford's. A constant span (exact
/// min == max, finite, no NaN) takes that value as its mean and 0 as its
/// m2 (and co-moment), as the Welford fold does; a lane sum of 2,000 ×
/// 0.1 divided back is not 0.1, and its spread would not be 0.
///
/// NaN contract: min/max consider only non-NaN values (update rule
/// `if (x < min) min = x` seeded from +inf/-inf). A non-empty span whose
/// values are all NaN yields min = max = NaN; sum/mean/m2 are NaN
/// whenever any value is NaN (IEEE propagation, same as the serial
/// path). Empty spans yield the zeroed DescriptiveStats.

/// How stored int64 raws decode to doubles (mirrors TransposedTable's
/// cell encoding: kInt64 casts, kDoubleBits reinterprets).
enum class RunValueKind : uint8_t {
  kInt64 = 0,
  kDoubleBits = 1,
};

inline double DecodeRunValue(int64_t raw, RunValueKind kind) {
  return kind == RunValueKind::kInt64
             ? static_cast<double>(raw)
             : std::bit_cast<double>(raw);
}

/// The bivariate partial state: the kernels return stats' one
/// co-moment state directly.
using Comoments = ComomentStats;

/// One-pass-shaped descriptive statistics of a span, via the 4-lane
/// two-pass reduction above. Dispatches on ActiveLevel().
DescriptiveStats DescribeSpan(const double* data, size_t n);

/// Co-moment accumulation over row-aligned pairs, 4-lane two-pass.
/// Dispatches on ActiveLevel().
Comoments ComomentSpan(const double* xs, const double* ys, size_t n);

/// Per-level entry points (parity tests assert these bit-identical;
/// production code calls the dispatching wrappers above). The SSE2/AVX2
/// variants fall back to scalar when not compiled in.
DescriptiveStats DescribeSpanScalar(const double* data, size_t n);
DescriptiveStats DescribeSpanSse2(const double* data, size_t n);
DescriptiveStats DescribeSpanAvx2(const double* data, size_t n);
Comoments ComomentSpanScalar(const double* xs, const double* ys, size_t n);
Comoments ComomentSpanSse2(const double* xs, const double* ys, size_t n);
Comoments ComomentSpanAvx2(const double* xs, const double* ys, size_t n);

/// Compressed-domain aggregation: descriptive statistics directly over
/// RLE run records without materializing cells. A present run of value v
/// and length k contributes k, k·v to count/sum in O(1) and one min/max
/// update; m2 adds k·(v - mean)² in a second pass over the runs. Runs
/// with present == false are skipped (they encode missing cells).
/// Accumulation is sequential in run order (deterministic; documented as
/// tolerance-class versus the per-cell serial oracle for sum/mean/m2,
/// exact for count/min/max). O(runs) total work — this is the whole
/// point: cost scales with runs, not rows.
DescriptiveStats DescribeRuns(const RleRun* runs, size_t n,
                              RunValueKind kind);

}  // namespace statdb::simd

#endif  // STATDB_SIMD_KERNELS_H_
