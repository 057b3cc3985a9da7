// SSE2 lane primitives: lanes 0/1 and 2/3 ride two __m128d accumulators,
// so lane l sees exactly the additions the scalar path gives it, in the
// same order — bit-identical by construction. This TU is compiled with
// the build's baseline flags (SSE2 is the x86-64 baseline).
#include "simd/kernels_internal.h"

#if defined(STATDB_SIMD_HAVE_SSE2)

#include <emmintrin.h>

#include <limits>

namespace statdb::simd::internal {

namespace {

void LaneSumMinMaxSse2(const double* data, size_t n, double out[4],
                       double* mn_out, double* mx_out) {
  // _mm_min_pd(x, acc) keeps acc when x is NaN — the NaN-skipping update
  // rule, vectorized. Accumulators start at +/-inf and can never become
  // NaN, so the scalar lane combine below needs no NaN handling.
  __m128d a01 = _mm_setzero_pd();
  __m128d a23 = _mm_setzero_pd();
  __m128d vmn = _mm_set1_pd(std::numeric_limits<double>::infinity());
  __m128d vmx = _mm_set1_pd(-std::numeric_limits<double>::infinity());
  size_t n4 = n & ~size_t{3};
  for (size_t i = 0; i < n4; i += 4) {
    const __m128d x01 = _mm_loadu_pd(data + i);
    const __m128d x23 = _mm_loadu_pd(data + i + 2);
    a01 = _mm_add_pd(a01, x01);
    a23 = _mm_add_pd(a23, x23);
    vmn = _mm_min_pd(x23, _mm_min_pd(x01, vmn));
    vmx = _mm_max_pd(x23, _mm_max_pd(x01, vmx));
  }
  _mm_storeu_pd(out, a01);
  _mm_storeu_pd(out + 2, a23);
  double lmn[2], lmx[2];
  _mm_storeu_pd(lmn, vmn);
  _mm_storeu_pd(lmx, vmx);
  double mn = lmn[0] < lmn[1] ? lmn[0] : lmn[1];
  double mx = lmx[0] > lmx[1] ? lmx[0] : lmx[1];
  for (size_t t = 0; n4 + t < n; ++t) {
    const double x = data[n4 + t];
    out[t] += x;
    if (x < mn) mn = x;
    if (x > mx) mx = x;
  }
  *mn_out = mn;
  *mx_out = mx;
}

void LaneSumSqDevSse2(const double* data, size_t n, double center,
                      double out[4]) {
  __m128d c = _mm_set1_pd(center);
  __m128d a01 = _mm_setzero_pd();
  __m128d a23 = _mm_setzero_pd();
  size_t n4 = n & ~size_t{3};
  for (size_t i = 0; i < n4; i += 4) {
    __m128d d01 = _mm_sub_pd(_mm_loadu_pd(data + i), c);
    __m128d d23 = _mm_sub_pd(_mm_loadu_pd(data + i + 2), c);
    a01 = _mm_add_pd(a01, _mm_mul_pd(d01, d01));
    a23 = _mm_add_pd(a23, _mm_mul_pd(d23, d23));
  }
  _mm_storeu_pd(out, a01);
  _mm_storeu_pd(out + 2, a23);
  for (size_t t = 0; n4 + t < n; ++t) {
    double d = data[n4 + t] - center;
    out[t] += d * d;
  }
}

void LaneComomentDevSse2(const double* xs, const double* ys, size_t n,
                         double cx, double cy, double sxx[4],
                         double syy[4], double sxy[4]) {
  const __m128d vcx = _mm_set1_pd(cx);
  const __m128d vcy = _mm_set1_pd(cy);
  __m128d xx01 = _mm_setzero_pd(), xx23 = _mm_setzero_pd();
  __m128d yy01 = _mm_setzero_pd(), yy23 = _mm_setzero_pd();
  __m128d xy01 = _mm_setzero_pd(), xy23 = _mm_setzero_pd();
  size_t n4 = n & ~size_t{3};
  for (size_t i = 0; i < n4; i += 4) {
    const __m128d dx01 = _mm_sub_pd(_mm_loadu_pd(xs + i), vcx);
    const __m128d dx23 = _mm_sub_pd(_mm_loadu_pd(xs + i + 2), vcx);
    const __m128d dy01 = _mm_sub_pd(_mm_loadu_pd(ys + i), vcy);
    const __m128d dy23 = _mm_sub_pd(_mm_loadu_pd(ys + i + 2), vcy);
    xx01 = _mm_add_pd(xx01, _mm_mul_pd(dx01, dx01));
    xx23 = _mm_add_pd(xx23, _mm_mul_pd(dx23, dx23));
    yy01 = _mm_add_pd(yy01, _mm_mul_pd(dy01, dy01));
    yy23 = _mm_add_pd(yy23, _mm_mul_pd(dy23, dy23));
    xy01 = _mm_add_pd(xy01, _mm_mul_pd(dx01, dy01));
    xy23 = _mm_add_pd(xy23, _mm_mul_pd(dx23, dy23));
  }
  _mm_storeu_pd(sxx, xx01);
  _mm_storeu_pd(sxx + 2, xx23);
  _mm_storeu_pd(syy, yy01);
  _mm_storeu_pd(syy + 2, yy23);
  _mm_storeu_pd(sxy, xy01);
  _mm_storeu_pd(sxy + 2, xy23);
  for (size_t t = 0; n4 + t < n; ++t) {
    const double dx = xs[n4 + t] - cx;
    const double dy = ys[n4 + t] - cy;
    sxx[t] += dx * dx;
    syy[t] += dy * dy;
    sxy[t] += dx * dy;
  }
}

}  // namespace

const LaneOps& Sse2Ops() {
  static const LaneOps ops{LaneSumMinMaxSse2, LaneSumSqDevSse2,
                           LaneComomentDevSse2};
  return ops;
}

}  // namespace statdb::simd::internal

#else  // !STATDB_SIMD_HAVE_SSE2

namespace statdb::simd::internal {

const LaneOps& Sse2Ops() { return ScalarOps(); }

}  // namespace statdb::simd::internal

#endif
