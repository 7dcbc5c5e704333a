// Minimal deterministic JSON emission helpers, shared by the bench metrics
// writer (exp/json) and the observability layer (obs).
//
// json_number prints doubles with "%.17g": round-trip exact and
// locale-independent for the characters it emits, so any serialization built
// from these helpers is byte-deterministic across runs and machines.
#pragma once

#include <cmath>
#include <cstdio>
#include <ostream>
#include <string>

namespace dimmer::util {

/// "%.17g" rendering of a double; NaN/inf become "null" (JSON has neither).
inline std::string json_number(double v) {
  if (std::isnan(v) || std::isinf(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Quote and escape a string per RFC 8259.
inline std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

/// Writes `{"k": v, ...}` to `os` over a range of (key, value) pairs, in
/// range order; `emit_value(v)` writes each value.
template <typename Pairs, typename EmitValue>
void json_object(std::ostream& os, const Pairs& pairs, EmitValue&& emit_value) {
  os << "{";
  bool first = true;
  for (const auto& [k, v] : pairs) {
    if (!first) os << ", ";
    first = false;
    os << json_quote(k) << ": ";
    emit_value(v);
  }
  os << "}";
}

}  // namespace dimmer::util
