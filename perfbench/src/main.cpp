// perfbench: the repository benchmark. See README.md for the workloads,
// metrics and how to run it (python3 perfbench/run.py ...).
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "args.hpp"
#include "harness.hpp"

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse_args(
        std::vector<std::string>(argv + 1, argv + argc));
    return perfbench::run(args, std::cout, std::cerr);
  } catch (const perfbench::ArgError& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 64;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 1;
  }
}
