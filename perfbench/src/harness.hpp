// Runs one workload end to end: set-up, an untraced measured pass, an
// optional traced pass, the correctness checks, and the result lines.
#pragma once

#include <ostream>

#include "args.hpp"

namespace perfbench {

/// Executes `args` (any mode). Returns the process exit code.
int run(const Args& args, std::ostream& out, std::ostream& err);

}  // namespace perfbench
