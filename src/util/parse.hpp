// Strict numeric parsing for flags and environment overrides.
//
// One rule set for every numeric knob (DIMMER_JOBS, DIMMER_BENCH_SCALE,
// DIMMER_FED_WORKERS, the campaign variables, util::Cli flags, dimmer-lint
// --jobs): the whole string is the number — no leading whitespace, no '+'
// sign, no trailing characters, no hex, no inf/nan — and it is in range.
// Anything else is std::nullopt, and the caller fails loudly with its own
// message, so a mistyped override ("0.25x", " 8", "4x") never runs with a
// silently truncated or defaulted value.
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

}  // namespace dimmer::util
