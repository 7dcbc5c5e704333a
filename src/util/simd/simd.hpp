// Umbrella header for the backend-generic SIMD layer.
//
// The backend is chosen at configure time with the DIMMER_SIMD CMake option
// (scalar | avx2 | avx512); CMake translates it into the DIMMER_SIMD_AVX2 /
// DIMMER_SIMD_AVX512 compile definitions plus the matching -m flags. This
// header always provides:
//
//   simd<double, N>      the value type (scalar.hpp and the two-lane
//                        pair.hpp are always included; the wider
//                        specialisations only when their backend is on)
//   native_width         the widest lane count the build supports (1/4/8)
//   vdouble              simd<double, native_width> — what hot paths use
//   backend_name()       runtime introspection ("scalar"/"avx2"/"avx512"),
//                        reported by benches so artifacts are attributable
//
// Writing kernels against vdouble means the scalar build compiles the exact
// same source into plain scalar double arithmetic — the determinism anchor
// the differential suite and the BENCH byte-identity checks rely on
// (DESIGN.md §12).
#pragma once

#include "util/simd/pair.hpp"
#include "util/simd/scalar.hpp"

#if defined(DIMMER_SIMD_AVX512)
#include "util/simd/avx512.hpp"
#elif defined(DIMMER_SIMD_AVX2)
#include "util/simd/avx2.hpp"
#endif

#include "util/simd/math.hpp"

namespace dimmer::util::simd {

#if defined(DIMMER_SIMD_AVX512)
inline constexpr int native_width = 8;
#elif defined(DIMMER_SIMD_AVX2)
inline constexpr int native_width = 4;
#else
inline constexpr int native_width = 1;
#endif

using vdouble = simd<double, native_width>;

/// Name of the configured backend: "scalar", "avx2" or "avx512".
const char* backend_name();

}  // namespace dimmer::util::simd
