// AVX2 lane primitives: all four logical lanes ride one __m256d
// accumulator, reproducing the scalar path's per-lane addition order
// exactly. This is the only TU compiled with -mavx2 (no -mfma, so
// mul+add never contracts and stays bit-identical to the other levels);
// dispatch.cc gates it behind a runtime CPU check.
#include "simd/kernels_internal.h"

#if defined(STATDB_SIMD_HAVE_AVX2)

#include <immintrin.h>

#include <limits>

namespace statdb::simd::internal {

namespace {

void LaneSumMinMaxAvx2(const double* data, size_t n, double out[4],
                       double* mn_out, double* mx_out) {
  // Same NaN-skipping operand order as the SSE2 variant: min(x, acc)
  // keeps acc when x is NaN.
  __m256d acc = _mm256_setzero_pd();
  __m256d vmn = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  __m256d vmx = _mm256_set1_pd(-std::numeric_limits<double>::infinity());
  size_t n4 = n & ~size_t{3};
  for (size_t i = 0; i < n4; i += 4) {
    const __m256d x = _mm256_loadu_pd(data + i);
    acc = _mm256_add_pd(acc, x);
    vmn = _mm256_min_pd(x, vmn);
    vmx = _mm256_max_pd(x, vmx);
  }
  _mm256_storeu_pd(out, acc);
  double lmn[4], lmx[4];
  _mm256_storeu_pd(lmn, vmn);
  _mm256_storeu_pd(lmx, vmx);
  double mn = lmn[0];
  double mx = lmx[0];
  for (size_t l = 1; l < 4; ++l) {
    if (lmn[l] < mn) mn = lmn[l];
    if (lmx[l] > mx) mx = lmx[l];
  }
  for (size_t t = 0; n4 + t < n; ++t) {
    const double x = data[n4 + t];
    out[t] += x;
    if (x < mn) mn = x;
    if (x > mx) mx = x;
  }
  *mn_out = mn;
  *mx_out = mx;
}

void LaneSumSqDevAvx2(const double* data, size_t n, double center,
                      double out[4]) {
  __m256d c = _mm256_set1_pd(center);
  __m256d acc = _mm256_setzero_pd();
  size_t n4 = n & ~size_t{3};
  for (size_t i = 0; i < n4; i += 4) {
    __m256d d = _mm256_sub_pd(_mm256_loadu_pd(data + i), c);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  _mm256_storeu_pd(out, acc);
  for (size_t t = 0; n4 + t < n; ++t) {
    double d = data[n4 + t] - center;
    out[t] += d * d;
  }
}

void LaneComomentDevAvx2(const double* xs, const double* ys, size_t n,
                         double cx, double cy, double sxx[4],
                         double syy[4], double sxy[4]) {
  const __m256d vcx = _mm256_set1_pd(cx);
  const __m256d vcy = _mm256_set1_pd(cy);
  __m256d xx = _mm256_setzero_pd();
  __m256d yy = _mm256_setzero_pd();
  __m256d xy = _mm256_setzero_pd();
  size_t n4 = n & ~size_t{3};
  for (size_t i = 0; i < n4; i += 4) {
    const __m256d dx = _mm256_sub_pd(_mm256_loadu_pd(xs + i), vcx);
    const __m256d dy = _mm256_sub_pd(_mm256_loadu_pd(ys + i), vcy);
    xx = _mm256_add_pd(xx, _mm256_mul_pd(dx, dx));
    yy = _mm256_add_pd(yy, _mm256_mul_pd(dy, dy));
    xy = _mm256_add_pd(xy, _mm256_mul_pd(dx, dy));
  }
  _mm256_storeu_pd(sxx, xx);
  _mm256_storeu_pd(syy, yy);
  _mm256_storeu_pd(sxy, xy);
  for (size_t t = 0; n4 + t < n; ++t) {
    const double dx = xs[n4 + t] - cx;
    const double dy = ys[n4 + t] - cy;
    sxx[t] += dx * dx;
    syy[t] += dy * dy;
    sxy[t] += dx * dy;
  }
}

}  // namespace

const LaneOps& Avx2Ops() {
  static const LaneOps ops{LaneSumMinMaxAvx2, LaneSumSqDevAvx2,
                           LaneComomentDevAvx2};
  return ops;
}

}  // namespace statdb::simd::internal

#else  // !STATDB_SIMD_HAVE_AVX2

namespace statdb::simd::internal {

const LaneOps& Avx2Ops() { return Sse2Ops(); }

}  // namespace statdb::simd::internal

#endif
