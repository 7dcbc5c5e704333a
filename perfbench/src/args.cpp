#include "args.hpp"

#include <algorithm>
#include <charconv>
#include <map>

namespace perfbench {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "office18-dynamic", "campus-flood", "city-federation", "policy-train"};
  return names;
}

std::uint64_t parse_u64(std::string_view text, std::string_view what) {
  const std::string name(what);
  if (text.empty()) throw ArgError(name + ": empty value");
  // from_chars on an unsigned type takes digits only: no sign, no blanks.
  std::uint64_t v = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec == std::errc::result_out_of_range)
    throw ArgError(name + ": out of range: '" + std::string(text) + "'");
  if (ec != std::errc() || end != text.data() + text.size())
    throw ArgError(name + ": not a non-negative decimal integer: '" +
                   std::string(text) + "'");
  return v;
}

int parse_int_in(std::string_view text, int lo, int hi, std::string_view what) {
  const std::uint64_t v = parse_u64(text, what);
  if (v < static_cast<std::uint64_t>(lo) || v > static_cast<std::uint64_t>(hi))
    throw ArgError(std::string(what) + ": must lie in [" + std::to_string(lo) +
                   ", " + std::to_string(hi) + "], got " + std::string(text));
  return static_cast<int>(v);
}

Args parse_args(const std::vector<std::string>& argv) {
  static const std::vector<std::string> valued = {
      "--workload", "--seed", "--seconds", "--trace", "--work-dir"};
  static const std::vector<std::string> flags = {"--prepare",
                                                 "--print-digests"};
  std::map<std::string, std::string> opts;
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string& key = argv[i];
    const bool is_flag =
        std::find(flags.begin(), flags.end(), key) != flags.end();
    const bool is_valued =
        std::find(valued.begin(), valued.end(), key) != valued.end();
    if (!is_flag && !is_valued) throw ArgError("unknown argument: '" + key + "'");
    if (opts.count(key)) throw ArgError("duplicate argument: " + key);
    if (is_flag) {
      opts[key] = "";
      continue;
    }
    if (i + 1 >= argv.size()) throw ArgError(key + ": missing value");
    opts[key] = argv[++i];
  }

  Args a;
  auto take = [&opts](const char* key) {
    auto it = opts.find(key);
    if (it == opts.end()) throw ArgError(std::string("missing ") + key);
    std::string v = it->second;
    opts.erase(it);
    return v;
  };
  a.work_dir = take("--work-dir");
  if (a.work_dir.empty()) throw ArgError("--work-dir: empty value");

  if (opts.count("--prepare") || opts.count("--print-digests")) {
    if (opts.size() != 1)
      throw ArgError("--prepare and --print-digests take only --work-dir");
    a.mode = opts.count("--prepare") ? Mode::kPrepare : Mode::kPrintDigests;
    return a;
  }

  a.workload = take("--workload");
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end())
    throw ArgError("--workload: unknown workload '" + a.workload + "'");
  a.seed = parse_u64(take("--seed"), "--seed");
  a.seconds = parse_int_in(take("--seconds"), 1, 3600, "--seconds");
  a.trace = parse_int_in(take("--trace"), 0, 1, "--trace") == 1;
  return a;
}

}  // namespace perfbench
