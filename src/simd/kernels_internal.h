#ifndef STATDB_SIMD_KERNELS_INTERNAL_H_
#define STATDB_SIMD_KERNELS_INTERNAL_H_

#include <cstddef>
#include <cstdint>
#include <limits>

#include "simd/kernels.h"

namespace statdb::simd::internal {

/// The per-ISA lane primitives behind the span kernels. Each function
/// implements the fixed 4-logical-lane reduction of kernels.h: element i
/// folds into lane i % 4 in element order; tails (n % 4 elements) are
/// folded scalar into the already-extracted lane values, which is the
/// same addition sequence the scalar path performs — that is what makes
/// the ISA levels bit-identical. Composition (two-pass moments, NaN
/// finish) lives once in kernels.cc and is shared by every level.
struct LaneOps {
  /// One pass: out[l] = sum of data[i] with i % 4 == l, and the
  /// NaN-skipping min/max seeded from +inf/-inf (*mn, *mx). Min and max
  /// are exact values, so they need no lane discipline for bit-identity
  /// (SumMinMax in kernels.cc settles the sign of a zero extremum).
  void (*lane_sum_min_max)(const double* data, size_t n, double out[4],
                           double* mn, double* mx);
  /// out[l] = sum of (data[i] - center)^2 with i % 4 == l.
  void (*lane_sum_sq_dev)(const double* data, size_t n, double center,
                          double out[4]);
  /// One pass over row-aligned pairs, with dx = xs[i] - cx and
  /// dy = ys[i] - cy: sxx[l], syy[l] and sxy[l] sum dx·dx, dy·dy and
  /// dx·dy with i % 4 == l — each the sum lane_sum_sq_dev (or the
  /// product of the two deviations) gives, in the same order.
  void (*lane_comoment_dev)(const double* xs, const double* ys, size_t n,
                            double cx, double cy, double sxx[4],
                            double syy[4], double sxy[4]);
};

const LaneOps& ScalarOps();
/// Fall back to ScalarOps() when their ISA is not compiled in.
const LaneOps& Sse2Ops();
const LaneOps& Avx2Ops();

/// The documented lane combine: (l0 + l1) + (l2 + l3).
inline double ReduceLanes(const double lanes[4]) {
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

DescriptiveStats DescribeWith(const LaneOps& ops, const double* data,
                              size_t n);

/// The compressed-domain moments: run i is value(i) repeated length(i)
/// times (length 0 = skipped). count/sum/min/max in run order, then m2
/// about the mean in a second pass. DescribeRuns and DescribeMatchedRuns
/// both run it, so their arithmetic is one and the same.
template <typename ValueOf, typename LengthOf>
DescriptiveStats DescribeWeighted(size_t n, ValueOf value, LengthOf length) {
  DescriptiveStats s;
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    const uint64_t k = length(i);
    if (k == 0) continue;
    const double v = value(i);
    s.count += k;
    s.sum += static_cast<double>(k) * v;
    if (v < mn) mn = v;
    if (v > mx) mx = v;
  }
  if (s.count == 0) return s;
  s.mean = s.sum / static_cast<double>(s.count);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t k = length(i);
    if (k == 0) continue;
    const double d = value(i) - s.mean;
    s.m2 += static_cast<double>(k) * d * d;
  }
  if (mn > mx) {
    // min stayed at +inf and max at -inf: every value was NaN.
    mn = mx = std::numeric_limits<double>::quiet_NaN();
  }
  s.min = mn;
  s.max = mx;
  return s;
}
Comoments ComomentWith(const LaneOps& ops, const double* xs,
                       const double* ys, size_t n);

}  // namespace statdb::simd::internal

#endif  // STATDB_SIMD_KERNELS_INTERNAL_H_
