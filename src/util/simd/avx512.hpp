// AVX-512 backend: simd<double, 8> over __m512d.
//
// Only compiled when DIMMER_SIMD_AVX512 is defined (CMake
// -DDIMMER_SIMD=avx512, which adds -mavx512f -mavx512dq). AVX-512DQ provides
// native packed int64<->double conversion, so exp2i avoids the AVX2 bit
// tricks; selects use mask registers. Semantics are identical to the other
// backends: max/min follow std::max/std::min, and all polynomial evaluation
// happens through the same generic kernels in math.hpp.
#pragma once

#ifndef DIMMER_SIMD_AVX512
#error \
    "avx512.hpp requires DIMMER_SIMD_AVX512 (configure with -DDIMMER_SIMD=avx512)"
#endif

#include <immintrin.h>

#include "util/simd/scalar.hpp"

namespace dimmer::util::simd {

/// Every lane of a simd<double, 8>. The intrinsics whose unmasked forms
/// GCC 12 expands with an _mm512_undefined_*() source (and so warns about
/// under -Werror) are spelled as their zero-masked forms under this mask:
/// the same eight lanes.
inline constexpr __mmask8 kAllLanes = 0xFF;

template <>
struct simd<double, 8> {
  static constexpr int width = 8;
  using scalar_type = double;

  __m512d v;

  simd() : v(_mm512_setzero_pd()) {}
  explicit simd(double x) : v(_mm512_set1_pd(x)) {}
  explicit simd(__m512d x) : v(x) {}

  static simd load(const double* p) { return simd(_mm512_loadu_pd(p)); }
  void store(double* p) const { _mm512_storeu_pd(p, v); }
  static simd broadcast(double x) { return simd(_mm512_set1_pd(x)); }
  double lane(int i) const {
    alignas(64) double tmp[8];
    _mm512_store_pd(tmp, v);
    return tmp[i];
  }

  friend simd operator+(simd a, simd b) {
    return simd(_mm512_add_pd(a.v, b.v));
  }
  friend simd operator-(simd a, simd b) {
    return simd(_mm512_sub_pd(a.v, b.v));
  }
  friend simd operator*(simd a, simd b) {
    return simd(_mm512_mul_pd(a.v, b.v));
  }
  friend simd operator/(simd a, simd b) {
    return simd(_mm512_div_pd(a.v, b.v));
  }
};

/// a * b + c, fused (one rounding): -mavx512f enables FMA, and GCC
/// contracts `a * b + c` in the build's scalar code into the same operation.
inline simd<double, 8> mul_add(simd<double, 8> a, simd<double, 8> b,
                               simd<double, 8> c) {
  return simd<double, 8>(_mm512_fmadd_pd(a.v, b.v, c.v));
}

/// a * b rounded, then + c: never fused. _mm512_mul_pd is a plain vector
/// multiply that GCC would contract with the add; the _round form is an
/// opaque builtin it leaves alone.
inline simd<double, 8> mul_then_add(simd<double, 8> a, simd<double, 8> b,
                                    simd<double, 8> c) {
  return simd<double, 8>(_mm512_add_pd(
      _mm512_maskz_mul_round_pd(kAllLanes, a.v, b.v, _MM_FROUND_CUR_DIRECTION),
      c.v));
}

inline simd<double, 8> max(simd<double, 8> a, simd<double, 8> b) {
  // (a < b) ? b : a — std::max semantics.
  const __mmask8 lt = _mm512_cmp_pd_mask(a.v, b.v, _CMP_LT_OQ);
  return simd<double, 8>(_mm512_mask_blend_pd(lt, a.v, b.v));
}

inline simd<double, 8> min(simd<double, 8> a, simd<double, 8> b) {
  const __mmask8 lt = _mm512_cmp_pd_mask(b.v, a.v, _CMP_LT_OQ);
  return simd<double, 8>(_mm512_mask_blend_pd(lt, a.v, b.v));
}

inline simd<double, 8> round_nearest(simd<double, 8> x) {
  return simd<double, 8>(_mm512_maskz_roundscale_pd(
      kAllLanes, x.v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
}

inline simd<double, 8> select_lt(simd<double, 8> a, simd<double, 8> b,
                                 simd<double, 8> x, simd<double, 8> y) {
  const __mmask8 lt = _mm512_cmp_pd_mask(a.v, b.v, _CMP_LT_OQ);
  return simd<double, 8>(_mm512_mask_blend_pd(lt, y.v, x.v));
}

inline simd<double, 8> select_eq(simd<double, 8> a, simd<double, 8> b,
                                 simd<double, 8> x, simd<double, 8> y) {
  const __mmask8 eq = _mm512_cmp_pd_mask(a.v, b.v, _CMP_EQ_OQ);
  return simd<double, 8>(_mm512_mask_blend_pd(eq, y.v, x.v));
}

inline simd<double, 8> exp2i(simd<double, 8> n) {
  // AVX-512DQ: exact packed double -> int64 conversion.
  const __m512i n64 = _mm512_cvtpd_epi64(n.v);
  const __m512i biased = _mm512_add_epi64(n64, _mm512_set1_epi64(1023));
  return simd<double, 8>(
      _mm512_castsi512_pd(_mm512_maskz_slli_epi64(kAllLanes, biased, 52)));
}

inline simd<double, 8> exponent_part(simd<double, 8> x) {
  const __m512i bits = _mm512_castpd_si512(x.v);
  const __m512i expo = _mm512_maskz_srli_epi64(kAllLanes, bits, 52);
  const __m512d as_pd = _mm512_cvtepi64_pd(expo);
  return simd<double, 8>(_mm512_sub_pd(as_pd, _mm512_set1_pd(1022.0)));
}

inline simd<double, 8> mantissa_part(simd<double, 8> x) {
  const __m512i bits = _mm512_castpd_si512(x.v);
  const __m512i mant = _mm512_or_si512(
      _mm512_and_si512(bits, _mm512_set1_epi64(0x000FFFFFFFFFFFFFLL)),
      _mm512_set1_epi64(0x3FE0000000000000LL));
  return simd<double, 8>(_mm512_castsi512_pd(mant));
}

}  // namespace dimmer::util::simd
