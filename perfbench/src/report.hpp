// Result lines: one human-readable line per metric, then the JSON object the
// benchmark contract asks for as the last line of standard output.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// "metric <name> = <value> <unit>"
void print_metric_line(std::ostream& os, const Metric& m);

/// {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const std::vector<Metric>& metrics);

}  // namespace perfbench
