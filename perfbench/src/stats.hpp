// Order statistics for per-unit host timings.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples a percentile needs beyond it before it is reported.
inline constexpr std::size_t kTailSamples = 10;

/// Nearest-rank percentile (p in (0, 100]) of `v`; 0 for an empty sample.
double percentile(std::vector<double> v, double p);

double median(std::vector<double> v);

/// Samples strictly above the nearest-rank p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double p);

/// The highest percentile of {99.9, 99, 95, 90, 75, 50} that leaves at
/// least kTailSamples samples beyond it; 0 when even the median does not.
double highest_supported_percentile(std::size_t n);

/// Smallest sample count for which `p` is supported.
std::size_t min_samples_for(double p);

}  // namespace perfbench
