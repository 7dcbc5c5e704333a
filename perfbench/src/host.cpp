#include "host.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <thread>

#include "util/simd/simd.hpp"

namespace perfbench {

namespace {
std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    std::string v = line.substr(colon + 1);
    v.erase(0, v.find_first_not_of(' '));
    return v;
  }
  return "unknown";
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return std::max(1, CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}
}  // namespace

std::string Fingerprint::line() const {
  return "backend=" + backend + " cpu=\"" + cpu +
         "\" nproc=" + std::to_string(nproc) + " compiler=\"" + compiler +
         "\" build=" + build_type + (asserts ? "+asserts" : "");
}

Fingerprint host_fingerprint() {
  Fingerprint f;
  f.backend = dimmer::util::simd::backend_name();
  f.cpu = cpu_model();
  f.nproc = usable_cpus();
#if defined(__clang__)
  f.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  f.compiler = "gcc " __VERSION__;
#else
  f.compiler = "unknown";
#endif
  f.build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  f.asserts = false;
#else
  f.asserts = true;
#endif
  return f;
}

double peak_rss_mb() {
  // VmHWM is this process image's own high-water mark. ru_maxrss of
  // RUSAGE_SELF would also carry the launcher's peak across exec.
  double self_kb = 0.0;
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) self_kb = std::stod(line.substr(6));
  rusage kids{};
  getrusage(RUSAGE_CHILDREN, &kids);
  return std::max(self_kb, static_cast<double>(kids.ru_maxrss)) / 1024.0;
}

}  // namespace perfbench
