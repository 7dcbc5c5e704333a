#include "report.hpp"

#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
}  // namespace

void print_metric_line(std::ostream& os, const Metric& m) {
  os << "metric " << m.name << " = " << number(m.value) << ' ' << m.unit
     << '\n';
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " +
         number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}}";
  return s;
}

}  // namespace perfbench
