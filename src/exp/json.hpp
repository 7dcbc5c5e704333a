// Structured JSON metrics for bench sweeps (BENCH_<name>.json).
//
// Every converted bench emits one machine-readable file next to its table
// output so the repo has a measurable perf/quality trajectory: per-trial
// metrics, per-trial sample distributions, trajectories, wall-clock, and
// per-scenario aggregates (merged with RunningStats::merge).
//
// Schema (schema_version 1):
//   {
//     "bench": "<name>", "schema_version": 1,
//     "jobs": N, "wall_seconds": W,            // omitted if !include_timing
//     "trials": [
//       { "scenario": "...", "seed": S,
//         "params": {"k": 1.5, ...}, "tags": {"k": "v", ...},
//         "ok": true,                          // "error": "..." when false
//         "metrics": {"reliability": 0.993, ...},
//         "stats":  {"reliability": {"count": n, "mean": m, "stddev": s,
//                                    "min": lo, "max": hi}, ...},
//         "series": {"n_tx": [3, 4, ...], ...},
//         "wall_seconds": w }                  // omitted if !include_timing
//     ],
//     "aggregates": {
//       "<scenario>": { "trials": n,
//                       "metrics": {"<m>": {summary-across-trials}},
//                       "stats":   {"<k>": {merge-across-trials}} }
//     },
//     "metrics": {                              // omitted when empty
//       "counters":   {"<name>": n, ...},       // merged across ok trials in
//       "gauges":     {"<name>": v, ...},       //   spec order (bit-identical
//       "histograms": {"<name>": {...}, ...}    //   for any DIMMER_JOBS)
//     }
//   }
//
// Doubles are printed with "%.17g" (round-trip exact); the serialization is
// deterministic, so two runs of the same sweep — at any DIMMER_JOBS — yield
// byte-identical files once timing fields are excluded.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "exp/runner.hpp"

namespace dimmer::exp {

struct JsonOptions {
  /// Include jobs + wall-clock fields. Disable to get a byte-comparable
  /// serialization (the determinism tests diff jobs=1 vs jobs=8 output).
  bool include_timing = true;
  int jobs = 0;
  double wall_seconds = 0.0;
};

/// Serialize a finished sweep.
std::string to_json(const std::string& bench, const std::vector<Trial>& trials,
                    const JsonOptions& opt = {});

/// $DIMMER_BENCH_OUT/BENCH_<bench>.json (default directory ".").
std::string output_path(const std::string& bench);

/// Atomically replaces output_path(bench) with `contents` and logs the path
/// to `log` if given. Returns false (after printing the error to stderr) if
/// the write fails; the old artifact, if any, is left untouched.
bool write_artifact(const std::string& bench, const std::string& contents,
                    std::ostream* log = nullptr);

/// write_artifact(bench, to_json(bench, trials, opt), log). Never throws:
/// the metrics artifact is best-effort, it must not abort a finished sweep.
bool write_json(const std::string& bench, const std::vector<Trial>& trials,
                const JsonOptions& opt = {}, std::ostream* log = nullptr);

}  // namespace dimmer::exp
