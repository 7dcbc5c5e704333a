#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "util/simd/simd.hpp"

namespace dimmer::util::simd {
namespace {

using s1 = simd<double, 1>;

// Maps a double's bit pattern onto a monotone signed-integer line so that
// |ordered(a) - ordered(b)| counts the representable doubles between a and b.
std::int64_t ordered_bits(double x) {
  std::int64_t i;
  std::memcpy(&i, &x, sizeof(i));
  return i < 0 ? static_cast<std::int64_t>(0x8000000000000000ULL) - i : i;
}

std::int64_t ulp_diff(double a, double b) {
  if (a == b) return 0;  // covers +0.0 vs -0.0
  const std::int64_t d = ordered_bits(a) - ordered_bits(b);
  return d < 0 ? -d : d;
}

// ---------------------------------------------------------------------------
// Backend identity.

TEST(SimdBackend, NameMatchesNativeWidth) {
  const std::string name = backend_name();
  if (native_width == 8) {
    EXPECT_EQ(name, "avx512");
  } else if (native_width == 4) {
    EXPECT_EQ(name, "avx2");
  } else {
    EXPECT_EQ(native_width, 1);
    EXPECT_EQ(name, "scalar");
  }
  EXPECT_EQ(vdouble::width, native_width);
}

// ---------------------------------------------------------------------------
// Primitive API, exercised on the native vector type. Inputs go through
// load/store so every lane carries a distinct value.

TEST(SimdPrimitives, LoadStoreBroadcastLaneRoundTrip) {
  constexpr int w = native_width;
  double in[w], out[w];
  for (int i = 0; i < w; ++i) in[i] = 1.5 * i - 3.0;
  const vdouble v = vdouble::load(in);
  v.store(out);
  for (int i = 0; i < w; ++i) {
    EXPECT_EQ(out[i], in[i]);
    EXPECT_EQ(v.lane(i), in[i]);
  }
  const vdouble b = vdouble::broadcast(2.25);
  for (int i = 0; i < w; ++i) EXPECT_EQ(b.lane(i), 2.25);
}

TEST(SimdPrimitives, ArithmeticIsLanewiseIeee) {
  constexpr int w = native_width;
  double a[w], b[w], got[w];
  for (int i = 0; i < w; ++i) {
    a[i] = 0.1 * (i + 1);
    b[i] = 3.7 - 0.5 * i;
  }
  (vdouble::load(a) + vdouble::load(b)).store(got);
  for (int i = 0; i < w; ++i) EXPECT_EQ(got[i], a[i] + b[i]);
  (vdouble::load(a) - vdouble::load(b)).store(got);
  for (int i = 0; i < w; ++i) EXPECT_EQ(got[i], a[i] - b[i]);
  (vdouble::load(a) * vdouble::load(b)).store(got);
  for (int i = 0; i < w; ++i) EXPECT_EQ(got[i], a[i] * b[i]);
  (vdouble::load(a) / vdouble::load(b)).store(got);
  for (int i = 0; i < w; ++i) EXPECT_EQ(got[i], a[i] / b[i]);
}

TEST(SimdPrimitives, MaxMinFollowStdSemantics) {
  constexpr int w = native_width;
  double a[w], b[w], got_max[w], got_min[w];
  for (int i = 0; i < w; ++i) {
    a[i] = (i % 2 == 0) ? 1.0 + i : -2.0 * i;
    b[i] = 0.5 * i;
  }
  max(vdouble::load(a), vdouble::load(b)).store(got_max);
  min(vdouble::load(a), vdouble::load(b)).store(got_min);
  for (int i = 0; i < w; ++i) {
    EXPECT_EQ(got_max[i], std::max(a[i], b[i]));
    EXPECT_EQ(got_min[i], std::min(a[i], b[i]));
  }
}

// a = 1 + 2^-30: a * a = 1 + 2^-29 + 2^-60, and rounding the product drops
// the 2^-60, so a rounded and a fused a * a - 1 differ.
template <typename V>
void expect_mul_add_forms(double x, double rounded, double mul_add_expected) {
  const V a = V::broadcast(x), c = V::broadcast(-1.0);
  for (int i = 0; i < V::width; ++i) {
    EXPECT_EQ(mul_then_add(a, a, c).lane(i), rounded) << "width " << V::width;
    EXPECT_EQ(mul_add(a, a, c).lane(i), mul_add_expected)
        << "width " << V::width;
  }
}

TEST(SimdPrimitives, MulAddFusesOnlyWhereTheBuildHasFma) {
#ifdef __FP_FAST_FMA
  constexpr bool kFmaBuild = true;  // the avx512 build
#else
  constexpr bool kFmaBuild = false;
#endif
  volatile double va = 1.0 + 0x1p-30;
  const double a = va;
  volatile double product = a * a;  // stored: rounded on every build
  const double rounded = product - 1.0;
  const double fused = std::fma(a, a, -1.0);
  ASSERT_NE(rounded, fused);
  const double expected = kFmaBuild ? fused : rounded;
  // `a` is read at run time, so no operation is folded at compile time.
  expect_mul_add_forms<s1>(a, rounded, expected);
  expect_mul_add_forms<simd<double, 2>>(a, rounded, expected);
  expect_mul_add_forms<vdouble>(a, rounded, expected);
}

TEST(SimdPrimitives, PairIsLanewiseWithStdMaxSemantics) {
  using s2 = simd<double, 2>;
  const double a[2] = {-0.0, 3.0}, b[2] = {0.0, -1.5};
  double out[2];
  max(s2::load(a), s2::load(b)).store(out);
  EXPECT_TRUE(std::signbit(out[0]));  // (a < b) ? b : a keeps -0.0
  EXPECT_EQ(out[1], 3.0);
  (s2::load(a) * s2::load(b) + s2::broadcast(1.0)).store(out);
  EXPECT_EQ(out[1], 3.0 * -1.5 + 1.0);
  EXPECT_EQ(s2::load(a).lane(1), 3.0);
}

TEST(SimdPrimitives, RoundNearestTiesToEven) {
  const double in[] = {0.5, 1.5, 2.5, -0.5, -1.5, 3.2, -3.8, 4.0};
  for (double x : in) {
    constexpr int w = native_width;
    double got[w];
    round_nearest(vdouble::broadcast(x)).store(got);
    for (int i = 0; i < w; ++i) {
      EXPECT_EQ(got[i], std::nearbyint(x)) << "x=" << x;
    }
  }
}

TEST(SimdPrimitives, SelectsAreLanewise) {
  constexpr int w = native_width;
  double a[w], b[w], got[w];
  for (int i = 0; i < w; ++i) {
    a[i] = static_cast<double>(i);
    b[i] = static_cast<double>(w - i);  // a < b exactly for i < w/2 (w>1)
  }
  select_lt(vdouble::load(a), vdouble::load(b), vdouble::broadcast(1.0),
            vdouble::broadcast(-1.0))
      .store(got);
  for (int i = 0; i < w; ++i) {
    EXPECT_EQ(got[i], a[i] < b[i] ? 1.0 : -1.0) << "lane " << i;
  }
  select_eq(vdouble::load(a), vdouble::load(b), vdouble::broadcast(1.0),
            vdouble::broadcast(-1.0))
      .store(got);
  for (int i = 0; i < w; ++i) {
    EXPECT_EQ(got[i], a[i] == b[i] ? 1.0 : -1.0) << "lane " << i;
  }
}

TEST(SimdPrimitives, Exp2iBuildsExactPowersOfTwo) {
  for (int e : {-1022, -512, -1, 0, 1, 52, 511, 1023}) {
    constexpr int w = native_width;
    double got[w];
    exp2i(vdouble::broadcast(static_cast<double>(e))).store(got);
    for (int i = 0; i < w; ++i) {
      EXPECT_EQ(got[i], std::ldexp(1.0, e)) << "e=" << e;
    }
  }
  // The documented saturation edge: n == 1024 overflows the exponent field
  // into +inf, which is exactly what the exp kernels rely on.
  constexpr int w = native_width;
  double got[w];
  exp2i(vdouble::broadcast(1024.0)).store(got);
  for (int i = 0; i < w; ++i) {
    EXPECT_EQ(got[i], std::numeric_limits<double>::infinity());
  }
}

TEST(SimdPrimitives, ExponentMantissaMatchFrexp) {
  const double in[] = {1.0,    0.5,     2.0,      0.75,    1e-300,
                       1e300,  3.14159, 123456.0, 7.5e-12, 0.9999999};
  for (double x : in) {
    int se = 0;
    const double sm = std::frexp(x, &se);
    constexpr int w = native_width;
    double ge[w], gm[w];
    exponent_part(vdouble::broadcast(x)).store(ge);
    mantissa_part(vdouble::broadcast(x)).store(gm);
    for (int i = 0; i < w; ++i) {
      EXPECT_EQ(ge[i], static_cast<double>(se)) << "x=" << x;
      EXPECT_EQ(gm[i], sm) << "x=" << x;
      // Reconstruction is exact: x = m * 2^e.
      EXPECT_EQ(std::ldexp(gm[i], static_cast<int>(ge[i])), x);
    }
  }
}

// ---------------------------------------------------------------------------
// Polynomial math kernels at width 1. detail:: kernels are instantiable at
// width 1 on every build (including DIMMER_SIMD=scalar), so these accuracy
// pins run everywhere.

TEST(SimdMathKernels, PolyExpWithinUlpOfStd) {
  for (double x = -705.0; x <= 705.0; x += 0.7734) {
    const double got = detail::poly_exp(s1(x)).v;
    const double want = std::exp(x);
    EXPECT_LE(ulp_diff(got, want), 4) << "x=" << x << " got=" << got
                                      << " want=" << want;
  }
}

TEST(SimdMathKernels, PolyExpFlushesAndSaturates) {
  EXPECT_EQ(detail::poly_exp(s1(-800.0)).v, 0.0);
  EXPECT_EQ(detail::poly_exp(s1(-1.0e4)).v, 0.0);
  EXPECT_EQ(detail::poly_exp(s1(800.0)).v,
            std::numeric_limits<double>::infinity());
}

TEST(SimdMathKernels, PolyExp10WithinUlpOfStd) {
  for (double x = -305.0; x <= 305.0; x += 0.3117) {
    const double got = detail::poly_exp10(s1(x)).v;
    const double want = std::pow(10.0, x);
    EXPECT_LE(ulp_diff(got, want), 4) << "x=" << x << " got=" << got
                                      << " want=" << want;
  }
}

TEST(SimdMathKernels, PolyExp10FlushesAndSaturates) {
  EXPECT_EQ(detail::poly_exp10(s1(-320.0)).v, 0.0);
  EXPECT_EQ(detail::poly_exp10(s1(320.0)).v,
            std::numeric_limits<double>::infinity());
}

TEST(SimdMathKernels, PolyExp2WithinUlpOfStd) {
  for (double x = -1020.0; x <= 1020.0; x += 1.37) {
    const double got = detail::poly_exp2(s1(x)).v;
    const double want = std::exp2(x);
    EXPECT_LE(ulp_diff(got, want), 4) << "x=" << x;
  }
}

TEST(SimdMathKernels, PolyLog2WithinUlpOfStd) {
  // Log-spaced sweep across the positive normals the PHY feeds log2
  // (mW powers spanning roughly 1e-30 .. 1e3, plus a wide safety margin).
  for (double e = -280.0; e <= 280.0; e += 1.83) {
    const double x = std::pow(10.0, e / 10.0) * 1.2345;
    const double got = detail::poly_log2(s1(x)).v;
    const double want = std::log2(x);
    EXPECT_LE(ulp_diff(got, want), 4) << "x=" << x;
  }
  // Near 1.0 the result approaches zero; the compensated assembly keeps the
  // *absolute* error tiny there (relative ulp is the wrong yardstick at 0).
  for (double x : {0.999, 0.9999999, 1.0, 1.0000001, 1.001}) {
    EXPECT_NEAR(detail::poly_log2(s1(x)).v, std::log2(x), 1e-16) << "x=" << x;
  }
}

TEST(SimdMathKernels, PolyPowPositiveWithinRelativeTolerance) {
  // The flood engine's exponents: base = 1 - BER in (0.5, 1], y = bits up to
  // a few thousand. |y*log2(x)| stays < ~2100, where the exp2(y*log2(x))
  // construction holds ~1e-13 relative error.
  for (double base : {0.5000001, 0.75, 0.9, 0.99, 0.999999, 1.0}) {
    for (double bits : {0.0, 1.0, 8.0, 288.0, 1024.0, 2040.0}) {
      const double got = detail::poly_pow_positive(s1(base), s1(bits)).v;
      const double want = std::pow(base, bits);
      EXPECT_NEAR(got, want, std::abs(want) * 1e-11 + 1e-300)
          << "base=" << base << " bits=" << bits;
    }
  }
  // pow(x, +0.0) == 1.0 exactly — the identity the branchless
  // frame_success_kernel relies on for the jam_fraction == 0/1 cases.
  for (double base : {0.5000001, 0.9, 1.0}) {
    EXPECT_EQ(detail::poly_pow_positive(s1(base), s1(0.0)).v, 1.0);
  }
}

// ---------------------------------------------------------------------------
// Public dispatch: width 1 must be the literal std:: call (bit-identity is
// the scalar backend's whole determinism story).

TEST(SimdMathDispatch, WidthOneIsBitwiseStd) {
  for (double x = -50.0; x <= 50.0; x += 0.917) {
    EXPECT_EQ(exp(s1(x)).v, std::exp(x));
    EXPECT_EQ(exp10(s1(x * 3.0)).v, std::pow(10.0, x * 3.0));
  }
  for (double x : {1e-20, 0.3, 1.0, 2.5, 1e15}) {
    EXPECT_EQ(log2(s1(x)).v, std::log2(x));
    EXPECT_EQ(pow_positive(s1(x), s1(2.75)).v, std::pow(x, 2.75));
  }
}

// ---------------------------------------------------------------------------
// Lanewise purity on the native type: a value's result must not depend on
// which lane it occupies. Rotate the inputs through every lane and demand
// bit-identical per-value results.

TEST(SimdMathNative, ResultsAreLanePositionIndependent) {
  constexpr int w = native_width;
  double base[w];
  for (int i = 0; i < w; ++i) base[i] = -3.0 + 1.618 * i;
  double ref[w];
  exp(vdouble::load(base)).store(ref);
  for (int rot = 1; rot < w; ++rot) {
    double in[w], out[w];
    for (int i = 0; i < w; ++i) in[i] = base[(i + rot) % w];
    exp(vdouble::load(in)).store(out);
    for (int i = 0; i < w; ++i) {
      EXPECT_EQ(out[i], ref[(i + rot) % w]) << "rot=" << rot << " lane=" << i;
    }
  }
}

TEST(SimdMathNative, NativeExpMatchesStdWithinUlp) {
  // On the scalar backend this is exact (std::exp IS the implementation);
  // on wider backends the polynomial kernel must stay within a few ulp.
  const std::int64_t bound = native_width == 1 ? 0 : 4;
  constexpr int w = native_width;
  for (double x = -40.0; x <= 40.0; x += 0.73) {
    double got[w];
    exp(vdouble::broadcast(x)).store(got);
    for (int i = 0; i < w; ++i) {
      EXPECT_LE(ulp_diff(got[i], std::exp(x)), bound) << "x=" << x;
    }
  }
}

}  // namespace
}  // namespace dimmer::util::simd
