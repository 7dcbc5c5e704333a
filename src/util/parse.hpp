// Strict numeric parsing for flags and environment overrides.
//
// One rule set for every numeric knob (DIMMER_JOBS, DIMMER_BENCH_SCALE,
// DIMMER_FED_WORKERS, DIMMER_TRIAL_TIMEOUT_S, the campaign variables,
// util::Cli flags): the whole string is the number — no leading whitespace,
// no '+' sign, no trailing characters, no hex, no inf/nan — and it is in
// range. The parse_* functions return std::nullopt for anything else and the
// caller fails loudly with its own message; the env_* readers are that
// getenv-parse-require sequence for environment knobs, so a mistyped
// override ("0.25x", " 8", "4x") never runs with a silently truncated or
// defaulted value.
#pragma once

#include <optional>
#include <string_view>

namespace dimmer::util {

/// Decimal integer: an optional '-', then one or more digits, within the
/// range of long.
std::optional<long> parse_int(std::string_view text);

/// parse_int restricted to [1, INT_MAX]: counts such as worker numbers.
std::optional<int> parse_positive_int(std::string_view text);

/// Finite decimal number in strtod's decimal syntax (e.g. "0.25", "-1.5",
/// "1e2"), without a '+' sign and without over- or underflow.
std::optional<double> parse_double(std::string_view text);

/// The environment variable `name` as a parse_positive_int count:
/// std::nullopt when unset; throws util::RequireError ("<name> must be an
/// integer in [1, INT_MAX]") when set to anything else, including "".
std::optional<int> env_positive_int(const char* name);

/// The environment variable `name` as a parse_double value > 0:
/// std::nullopt when unset; throws util::RequireError ("<name> must be a
/// positive finite number") when set to anything else, including "".
std::optional<double> env_positive_double(const char* name);

/// Worker count for every parallel stage (sweeps, policy training):
/// DIMMER_JOBS as env_positive_int if set, else
/// std::thread::hardware_concurrency() (at least 1).
int jobs_from_env();

}  // namespace dimmer::util
