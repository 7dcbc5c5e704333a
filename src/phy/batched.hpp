// Batched PHY evaluators over the util/simd backend-generic value type.
//
// The Glossy step loop evaluates the same short chain of transcendental math
// for every awake listener: fading (10^(x/10)), mW -> dBm (log10), the
// 15-term 802.15.4 BER exp sum, and the (1-BER)^bits success power. This
// header provides batch forms of that chain, written once against
// simd<double, N> so one source compiles to scalar code (DIMMER_SIMD=scalar)
// or to 4/8-lane AVX kernels (avx2/avx512).
//
// Determinism contract (DESIGN.md §12):
//  - At native_width == 1 every entry point below reduces to the *exact*
//    historical scalar expressions (std::pow / std::exp / std::log10, same
//    association, same branch structure), so scalar-backend results are
//    byte-identical to pre-SIMD builds. Tests pin this bitwise.
//  - At native_width > 1 the kernels are pure lanewise functions: a value's
//    result depends only on that value, never on its lane position or on the
//    other batch entries. Results differ from scalar std:: by bounded ulp
//    (the polynomial kernels in util/simd/math.hpp); the scalar-vs-SIMD
//    equivalence tests bound the difference per site.
//  - No cross-lane reductions anywhere (the dimmer-lint simd-fp-order rule
//    polices this in hot regions).
//
// The templated kernels live in phy::simd_kernels so tests can instantiate
// them at width 1 on any build; the non-template entry points (batched.cpp)
// run them at util::simd::native_width.
#pragma once

#include <cmath>
#include <vector>

#include "phy/per.hpp"
#include "util/simd/simd.hpp"

namespace dimmer::phy {

namespace simd_kernels {

/// C(16, k) for k = 0..16 — the 802.15.4 BER binomial table (the canonical
/// copy of the formula lives in per.cpp; equality of the two is pinned
/// bitwise by tests/phy/test_batched.cpp).
constexpr double kBinom16Batch[17] = {
    1,    16,   120,  560,   1820,  4368, 8008, 11440, 12870,
    11440, 8008, 4368, 1820, 560,   120,  16,   1};

/// Lanewise ber_802154: at width 1 this is the scalar function's expression
/// sequence verbatim (via the width-1 dispatch of exp10/exp).
template <typename V>
inline V ber_802154_kernel(V sinr_db) {
  using util::simd::max;
  using util::simd::min;
  const V sinr = util::simd::exp10(sinr_db / V::broadcast(10.0));
  V acc = V::broadcast(0.0);
  for (int k = 2; k <= 16; ++k) {
    const double ck = 1.0 / k - 1.0;
    const V term = V::broadcast(kBinom16Batch[k]) *
                   util::simd::exp((V::broadcast(20.0) * sinr) *
                                   V::broadcast(ck));
    acc = (k % 2 == 0) ? acc + term : acc - term;
  }
  V ber = V::broadcast((8.0 / 15.0) * (1.0 / 16.0)) * acc;
  ber = max(ber, V::broadcast(0.0));
  ber = min(ber, V::broadcast(0.5));
  return ber;
}

/// Lanewise mw_to_dbm. Width 1 matches phy::mw_to_dbm bitwise (std::log10);
/// wider backends compute 10*log10(mw) as log2(mw) * (10*log10(2)).
template <typename V>
inline V mw_to_dbm_kernel(V mw) {
  if constexpr (V::width == 1) {
    return V(mw.v > 0.0 ? 10.0 * std::log10(mw.v) : -300.0);
  } else {
    using util::simd::select_lt;
    const V zero = V::broadcast(0.0);
    // Feed a benign 1.0 into log2 on non-positive lanes; the select below
    // overwrites them with the -300 dBm floor.
    const V safe = select_lt(zero, mw, mw, V::broadcast(1.0));
    const V dbm =
        util::simd::log2(safe) * V::broadcast(10.0 * 3.01029995663981195214e-1);
    return select_lt(zero, mw, dbm, V::broadcast(-300.0));
  }
}

/// Lanewise frame_success_prob. Width 1 defers to the branchy scalar
/// combine (including the jam_fraction == 0/1 short-circuits and the
/// equal-SINR BER reuse); wider backends evaluate the general expression
/// branchlessly — the short-circuit cases coincide with it because
/// bits * 0.0 == +0.0 and pow_positive(x, +0.0) == 1.0 exactly, and equal
/// SINR lanes produce bitwise-equal BERs from the same lanewise kernel.
template <typename V>
inline V frame_success_kernel(V sinr_clean_db, V sinr_jammed_db,
                              V jam_fraction, int frame_bytes) {
  if constexpr (V::width == 1) {
    return V(frame_success_prob(sinr_clean_db.v, sinr_jammed_db.v,
                                jam_fraction.v, frame_bytes));
  } else {
    using util::simd::max;
    using util::simd::min;
    using util::simd::pow_positive;
    const V one = V::broadcast(1.0);
    const V jam = min(max(jam_fraction, V::broadcast(0.0)), one);
    const V bits = V::broadcast(8.0 * frame_bytes);
    const V clean_bits = bits * (one - jam);
    const V jam_bits = bits * jam;
    const V ber_clean = ber_802154_kernel(sinr_clean_db);
    const V ber_jam = ber_802154_kernel(sinr_jammed_db);
    return pow_positive(one - ber_clean, clean_bits) *
           pow_positive(one - ber_jam, jam_bits);
  }
}

}  // namespace simd_kernels

/// Batch phy::dbm_to_mw: mw[i] = 10^(dbm[i]/10) for i in [0, count).
/// Scalar backend: bitwise std::pow(10.0, dbm/10.0). `dbm` and `mw` may be
/// the same array (each chunk is loaded before it is stored).
void dbm_to_mw_batch(const double* dbm, double* mw, int count);

/// Batch phy::ber_802154 over SINRs in dB.
void ber_802154_batch(const double* sinr_db, double* ber, int count);

/// Batch phy::frame_success_prob (same argument conventions).
void frame_success_prob_batch(const double* sinr_clean_db,
                              const double* sinr_jammed_db,
                              const double* jam_fraction, int frame_bytes,
                              double* p_ok, int count);

/// Structure-of-arrays staging buffer for one flood step's receptions.
///
/// The flood engine gathers per-listener inputs (powers, the pre-drawn
/// fading and Bernoulli variates, interference) in listener order, calls
/// reception_success_batch once, then applies the decisions — preserving
/// the historical per-listener RNG draw order exactly (normal before
/// uniform, listeners ascending). Reused across steps/floods; size with
/// resize(n) outside the hot loop, then set `count` per step.
struct ReceptionBatch {
  std::vector<double> strongest_mw;  ///< strongest concurrent TX power
  std::vector<double> total_mw;      ///< summed concurrent TX power
  std::vector<double> fade_db;       ///< rng.normal(0, sigma) draw (if fading)
  std::vector<double> interf_mw;     ///< sampled interference power
  std::vector<double> jam_fraction;  ///< interference exposure
  std::vector<double> uniform;       ///< rng.uniform() draw (Bernoulli)
  std::vector<double> p_ok;          ///< output: success probability
  int count = 0;                     ///< active prefix length

  /// Sizes every array to n (count is left to the caller). Amortized: no
  /// reallocation once capacity is established.
  void resize(int n) {
    const auto m = static_cast<std::size_t>(n);
    strongest_mw.resize(m);
    total_mw.resize(m);
    fade_db.resize(m);
    interf_mw.resize(m);
    jam_fraction.resize(m);
    uniform.resize(m);
    p_ok.resize(m);
  }
};

/// Computes p_ok[0, count) from the gathered inputs — the exact reception
/// math of GlossyFlood step 3b:
///
///   signal = strongest + coherence_gain * (total - strongest)
///   if (apply_fading) signal *= 10^(fade_db/10)
///   sinr_clean = mw_to_dbm(signal) - noise_dbm
///   sinr_jam   = interf == 0 ? sinr_clean
///                            : mw_to_dbm(signal) - mw_to_dbm(noise_mw+interf)
///   p_ok = frame_success_prob(sinr_clean, sinr_jam, jam_fraction, frame_bytes)
///
/// `noise_dbm` must be the caller's hoisted mw_to_dbm(noise_mw) so the
/// zero-interference path reuses its exact bits (as the engine always has).
void reception_success_batch(ReceptionBatch& b, double coherence_gain,
                             bool apply_fading, double noise_mw,
                             double noise_dbm, int frame_bytes);

}  // namespace dimmer::phy
