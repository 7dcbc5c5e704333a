#include "util/parse.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>

#include "util/check.hpp"

namespace dimmer::util {

namespace {
bool is_digit(char c) { return c >= '0' && c <= '9'; }
}  // namespace

std::optional<long> parse_int(std::string_view text) {
  const std::size_t first = !text.empty() && text[0] == '-' ? 1 : 0;
  if (first == text.size()) return std::nullopt;  // "" or "-"
  for (std::size_t i = first; i < text.size(); ++i)
    if (!is_digit(text[i])) return std::nullopt;
  const std::string s(text);  // strtol needs a terminator
  errno = 0;
  const long v = std::strtol(s.c_str(), nullptr, 10);
  if (errno == ERANGE) return std::nullopt;
  return v;
}

std::optional<int> parse_positive_int(std::string_view text) {
  const std::optional<long> v = parse_int(text);
  if (!v || *v < 1 || *v > std::numeric_limits<int>::max())
    return std::nullopt;
  return static_cast<int>(*v);
}

std::optional<double> parse_double(std::string_view text) {
  // strtod would also take leading whitespace, '+', hex floats and
  // inf/nan; a decimal number starts with '-', a digit or '.'.
  if (text.empty() || !(text[0] == '-' || text[0] == '.' || is_digit(text[0])))
    return std::nullopt;
  if (text.find_first_of("xX") != std::string_view::npos) return std::nullopt;
  const std::string s(text);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || errno == ERANGE || !std::isfinite(v))
    return std::nullopt;
  return v;
}

std::optional<int> env_positive_int(const char* name) {
  const char* s = std::getenv(name);
  if (s == nullptr) return std::nullopt;
  const std::optional<int> v = parse_positive_int(s);
  DIMMER_REQUIRE(v.has_value(),
                 std::string(name) + " must be an integer in [1, INT_MAX]");
  return v;
}

int jobs_from_env() {
  // A mistyped override ("8x", " 8") fails loudly rather than running at
  // an unintended parallelism.
  if (const std::optional<int> v = env_positive_int("DIMMER_JOBS")) return *v;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

std::optional<double> env_positive_double(const char* name) {
  const char* s = std::getenv(name);
  if (s == nullptr) return std::nullopt;
  const std::optional<double> v = parse_double(s);
  DIMMER_REQUIRE(v.has_value() && *v > 0.0,
                 std::string(name) + " must be a positive finite number");
  return v;
}

}  // namespace dimmer::util
