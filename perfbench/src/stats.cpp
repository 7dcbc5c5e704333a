#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {
std::size_t nearest_rank(std::size_t n, double p) {
  // Rank in 1..n; computed in integer per-mille so 99.9 and 99 are exact.
  const auto per_mille = static_cast<std::size_t>(std::llround(p * 10.0));
  const std::size_t rank = (per_mille * n + 999) / 1000;
  return std::clamp<std::size_t>(rank, 1, n);
}
}  // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const std::size_t k = nearest_rank(v.size(), p) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

double highest_supported_percentile(std::size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0})
    if (samples_beyond(n, p) >= kTailSamples) return p;
  return 0.0;
}

std::size_t min_samples_for(double p) {
  std::size_t n = 1;
  while (samples_beyond(n, p) < kTailSamples) ++n;
  return n;
}

}  // namespace perfbench
