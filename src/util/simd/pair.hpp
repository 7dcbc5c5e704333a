// Two-lane value type, simd<double, 2>, on every backend.
//
// Built on GCC's generic vector extension rather than on intrinsics, so it
// needs no -m flag: on x86-64 it compiles to SSE2, which the baseline ISA
// includes. Its lanewise operations are single IEEE-754 double operations,
// bit-identical to scalar code. It exists for kernels that want lanes on
// the scalar build too (the rl layer kernel packs max(native_width, 2)
// lanes); the wide backends' own types serve the other builds.
//
// Only the primitives such kernels use are defined: load/store/broadcast,
// arithmetic, max with std::max semantics, mul_add and mul_then_add.
#pragma once

#include <cmath>
#include <cstring>

#include "util/simd/scalar.hpp"

namespace dimmer::util::simd {

template <>
struct simd<double, 2> {
  static constexpr int width = 2;
  using scalar_type = double;
  using native = double __attribute__((vector_size(16)));

  native v;

  simd() : v{0.0, 0.0} {}
  explicit simd(double x) : v{x, x} {}
  explicit simd(native x) : v(x) {}

  static simd load(const double* p) {
    native x;
    std::memcpy(&x, p, sizeof x);
    return simd(x);
  }
  void store(double* p) const { std::memcpy(p, &v, sizeof v); }
  static simd broadcast(double x) { return simd(x); }
  double lane(int i) const { return v[i]; }

  friend simd operator+(simd a, simd b) { return simd(a.v + b.v); }
  friend simd operator-(simd a, simd b) { return simd(a.v - b.v); }
  friend simd operator*(simd a, simd b) { return simd(a.v * b.v); }
  friend simd operator/(simd a, simd b) { return simd(a.v / b.v); }
};

/// std::max semantics, lanewise: (a < b) ? b : a.
inline simd<double, 2> max(simd<double, 2> a, simd<double, 2> b) {
  return simd<double, 2>(a.v < b.v ? b.v : a.v);
}

/// a * b + c, fused where the target has FMA, as the width-1 mul_add.
/// Spelled out per lane there: GCC does not contract two-lane vectors on
/// the avx512 build (-mavx512f alone has no 128-bit vector FMA).
inline simd<double, 2> mul_add(simd<double, 2> a, simd<double, 2> b,
                               simd<double, 2> c) {
#ifdef __FP_FAST_FMA
  using native = simd<double, 2>::native;
  return simd<double, 2>(native{std::fma(a.v[0], b.v[0], c.v[0]),
                                std::fma(a.v[1], b.v[1], c.v[1])});
#else
  return simd<double, 2>(a.v * b.v + c.v);
#endif
}

/// a * b rounded, then + c: never fused, on any build.
inline simd<double, 2> mul_then_add(simd<double, 2> a, simd<double, 2> b,
                                    simd<double, 2> c) {
#ifdef __FP_FAST_FMA
  return simd<double, 2>(__builtin_assoc_barrier(a.v * b.v) + c.v);
#else
  return simd<double, 2>(a.v * b.v + c.v);
#endif
}

}  // namespace dimmer::util::simd
