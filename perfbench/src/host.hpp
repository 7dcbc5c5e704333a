// Host and build fingerprint, and process memory.
#pragma once

#include <string>

namespace perfbench {

struct Fingerprint {
  std::string backend;     ///< util::simd::backend_name()
  std::string cpu;         ///< /proc/cpuinfo "model name"
  int nproc = 1;           ///< CPUs this process may run on
  std::string compiler;
  std::string build_type;  ///< CMAKE_BUILD_TYPE the benchmark was built with
  bool asserts = false;    ///< NDEBUG not defined

  /// Timings are reported only from optimized builds without assertions.
  bool release() const { return build_type == "Release" && !asserts; }
  std::string line() const;
};

Fingerprint host_fingerprint();

/// Peak resident set of this process image or of its largest reaped child,
/// in MiB.
double peak_rss_mb();

}  // namespace perfbench
