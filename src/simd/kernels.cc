#include "simd/kernels.h"

#include <cmath>
#include <limits>
#include <optional>

#include "simd/kernels_internal.h"

namespace statdb::simd {

namespace internal {

namespace {

void LaneSumScalar(const double* data, size_t n, double out[4]) {
  double l0 = 0, l1 = 0, l2 = 0, l3 = 0;
  size_t n4 = n & ~size_t{3};
  for (size_t i = 0; i < n4; i += 4) {
    l0 += data[i];
    l1 += data[i + 1];
    l2 += data[i + 2];
    l3 += data[i + 3];
  }
  out[0] = l0;
  out[1] = l1;
  out[2] = l2;
  out[3] = l3;
  for (size_t t = 0; n4 + t < n; ++t) out[t] += data[n4 + t];
}

void LaneSumSqDevScalar(const double* data, size_t n, double center,
                        double out[4]) {
  double l0 = 0, l1 = 0, l2 = 0, l3 = 0;
  size_t n4 = n & ~size_t{3};
  for (size_t i = 0; i < n4; i += 4) {
    double d0 = data[i] - center;
    double d1 = data[i + 1] - center;
    double d2 = data[i + 2] - center;
    double d3 = data[i + 3] - center;
    l0 += d0 * d0;
    l1 += d1 * d1;
    l2 += d2 * d2;
    l3 += d3 * d3;
  }
  out[0] = l0;
  out[1] = l1;
  out[2] = l2;
  out[3] = l3;
  for (size_t t = 0; n4 + t < n; ++t) {
    double d = data[n4 + t] - center;
    out[t] += d * d;
  }
}

void LaneSumProdDevScalar(const double* xs, const double* ys, size_t n,
                          double cx, double cy, double out[4]) {
  double l0 = 0, l1 = 0, l2 = 0, l3 = 0;
  size_t n4 = n & ~size_t{3};
  for (size_t i = 0; i < n4; i += 4) {
    l0 += (xs[i] - cx) * (ys[i] - cy);
    l1 += (xs[i + 1] - cx) * (ys[i + 1] - cy);
    l2 += (xs[i + 2] - cx) * (ys[i + 2] - cy);
    l3 += (xs[i + 3] - cx) * (ys[i + 3] - cy);
  }
  out[0] = l0;
  out[1] = l1;
  out[2] = l2;
  out[3] = l3;
  for (size_t t = 0; n4 + t < n; ++t) {
    out[t] += (xs[n4 + t] - cx) * (ys[n4 + t] - cy);
  }
}

void MinMaxScalar(const double* data, size_t n, double* mn_out,
                  double* mx_out) {
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    double x = data[i];
    if (x < mn) mn = x;
    if (x > mx) mx = x;
  }
  *mn_out = mn;
  *mx_out = mx;
}

}  // namespace

const LaneOps& ScalarOps() {
  static const LaneOps ops{LaneSumScalar, LaneSumSqDevScalar,
                           LaneSumProdDevScalar, MinMaxScalar};
  return ops;
}

namespace {

/// The one value of a constant span: its exact min when that equals its
/// exact max and is finite, and no value is NaN (`sum` is the lane sum,
/// which a NaN makes NaN). A lane-summed mean of such a span need not be
/// the value (2,000 × 0.1), so the callers take the value itself and a
/// spread of exactly 0, as the Welford fold does.
std::optional<double> ConstantValue(double mn, double mx, double sum) {
  if (mn == mx && std::isfinite(mn) && !std::isnan(sum)) return mn;
  return std::nullopt;
}

}  // namespace

DescriptiveStats DescribeWith(const LaneOps& ops, const double* data,
                              size_t n) {
  DescriptiveStats s;
  if (n == 0) return s;
  s.count = n;
  double lanes[4];
  ops.lane_sum(data, n, lanes);
  s.sum = ReduceLanes(lanes);
  double mn, mx;
  ops.min_max(data, n, &mn, &mx);
  if (std::optional<double> v = ConstantValue(mn, mx, s.sum)) {
    s.mean = *v;
  } else {
    s.mean = s.sum / static_cast<double>(n);
    ops.lane_sum_sq_dev(data, n, s.mean, lanes);
    s.m2 = ReduceLanes(lanes);
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
                       const double* ys, size_t n) {
  Comoments c;
  if (n == 0) return c;
  c.n = n;
  double lanes[4];
  double mn, mx;
  ops.lane_sum(xs, n, lanes);
  const double sum_x = ReduceLanes(lanes);
  ops.min_max(xs, n, &mn, &mx);
  const std::optional<double> const_x = ConstantValue(mn, mx, sum_x);
  c.mean_x = const_x ? *const_x : sum_x / static_cast<double>(n);
  ops.lane_sum(ys, n, lanes);
  const double sum_y = ReduceLanes(lanes);
  ops.min_max(ys, n, &mn, &mx);
  const std::optional<double> const_y = ConstantValue(mn, mx, sum_y);
  c.mean_y = const_y ? *const_y : sum_y / static_cast<double>(n);
  if (!const_x) {
    ops.lane_sum_sq_dev(xs, n, c.mean_x, lanes);
    c.m2x = ReduceLanes(lanes);
  }
  if (!const_y) {
    ops.lane_sum_sq_dev(ys, n, c.mean_y, lanes);
    c.m2y = ReduceLanes(lanes);
  }
  if (!const_x && !const_y) {
    ops.lane_sum_prod_dev(xs, ys, n, c.mean_x, c.mean_y, lanes);
    c.cxy = ReduceLanes(lanes);
  }
  return c;
}

}  // namespace internal

DescriptiveStats DescribeSpanScalar(const double* data, size_t n) {
  return internal::DescribeWith(internal::ScalarOps(), data, n);
}

DescriptiveStats DescribeSpanSse2(const double* data, size_t n) {
  return internal::DescribeWith(internal::Sse2Ops(), data, n);
}

DescriptiveStats DescribeSpanAvx2(const double* data, size_t n) {
  return internal::DescribeWith(internal::Avx2Ops(), data, n);
}

Comoments ComomentSpanScalar(const double* xs, const double* ys, size_t n) {
  return internal::ComomentWith(internal::ScalarOps(), xs, ys, n);
}

Comoments ComomentSpanSse2(const double* xs, const double* ys, size_t n) {
  return internal::ComomentWith(internal::Sse2Ops(), xs, ys, n);
}

Comoments ComomentSpanAvx2(const double* xs, const double* ys, size_t n) {
  return internal::ComomentWith(internal::Avx2Ops(), xs, ys, n);
}

DescriptiveStats DescribeSpan(const double* data, size_t n) {
  switch (ActiveLevel()) {
    case SimdLevel::kAVX2: return DescribeSpanAvx2(data, n);
    case SimdLevel::kSSE2: return DescribeSpanSse2(data, n);
    case SimdLevel::kScalar: break;
  }
  return DescribeSpanScalar(data, n);
}

Comoments ComomentSpan(const double* xs, const double* ys, size_t n) {
  switch (ActiveLevel()) {
    case SimdLevel::kAVX2: return ComomentSpanAvx2(xs, ys, n);
    case SimdLevel::kSSE2: return ComomentSpanSse2(xs, ys, n);
    case SimdLevel::kScalar: break;
  }
  return ComomentSpanScalar(xs, ys, n);
}

DescriptiveStats DescribeRuns(const RleRun* runs, size_t n,
                              RunValueKind kind) {
  return internal::DescribeWeighted(
      n, [&](size_t i) { return DecodeRunValue(runs[i].value, kind); },
      [&](size_t i) -> uint64_t {
        return runs[i].present ? runs[i].length : 0;
      });
}

}  // namespace statdb::simd
