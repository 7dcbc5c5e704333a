// Strict command-line parsing for the benchmark binary.
//
// Every value is parsed as a whole string: "0.25x", "", "-1", "+3", " 7" and
// out-of-range numbers are rejected with an ArgError instead of silently
// turning into a default.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class ArgError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// What the binary was asked to do.
enum class Mode {
  kRun,           ///< measure one workload
  kPrepare,       ///< build one-time caches (the deployed policy) and exit
  kPrintDigests,  ///< print every workload's reference digest and exit
};

struct Args {
  Mode mode = Mode::kRun;
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string work_dir;  ///< caches, campaign journals and span files
};

/// Workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Decimal digits only, no sign, no whitespace, no overflow.
std::uint64_t parse_u64(std::string_view text, std::string_view what);

/// parse_u64 restricted to [lo, hi].
int parse_int_in(std::string_view text, int lo, int hi, std::string_view what);

/// Parses argv[1..]. Run mode:
///   --workload <name> --seed <n> --seconds <1..3600> --trace <0|1>
///   --work-dir <dir>
/// Other modes: --prepare --work-dir <dir>, --print-digests --work-dir <dir>.
/// Each option may appear once; unknown options are errors.
Args parse_args(const std::vector<std::string>& argv);

}  // namespace perfbench
