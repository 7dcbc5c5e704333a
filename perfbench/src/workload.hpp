// The interface every benchmark workload implements.
//
// A workload is set up once (timed, repeated), then runs *batches*: a fixed,
// seed-determined sequence of work units (LWB rounds, floods, federation
// epochs or training steps). The same seed gives a batch with the same
// simulated outputs every time, so the harness checks each batch's digest
// against the first one, and the first against the digest recorded for the
// reference seed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "report.hpp"
#include "spans.hpp"

namespace perfbench {

/// Seed whose batch digests are recorded in digests/<backend>.txt; it is
/// also the default seed (README.md names the held-out seed).
inline constexpr std::uint64_t kReferenceSeed = 1;

struct Context {
  std::string work_dir;  ///< caches, campaign journals and span files
};

/// Per-layer values keyed by the names in BENCHMARK.json's per_layer list.
using LayerMap = std::map<std::string, double>;

struct Batch {
  std::vector<double> unit_ms;       ///< host time of every unit, in order
  std::uint64_t digest = 0;          ///< over the batch's simulated outputs
  std::vector<std::string> errors;   ///< violated workload invariants
  std::vector<Metric> outputs;       ///< simulated outputs (deterministic)
  std::map<std::string, std::vector<double>> timings;  ///< extra host times
  LayerMap layers;                   ///< counts and times, summed by the harness
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// What one unit is ("round", "flood", "epoch", "train_step").
  virtual const char* unit() const = 0;

  /// (Re)builds every input the batches need; the harness times this.
  virtual void setup() = 0;

  /// Runs one batch. With a tracer, spans and layer counts are recorded.
  virtual Batch run_batch(std::uint64_t seed, Tracer* tracer) = 0;

  /// Completes the per-batch layer values of a traced pass: `layers` holds
  /// the batches' mean counts, `spans` the mean span totals per batch.
  virtual void finish_layers(
      LayerMap& layers, const std::map<std::string, SpanTotals>& spans) = 0;
};

/// A registry counter, or 0 when the run never touched it.
inline double counter_value(const dimmer::obs::MetricsRegistry& m,
                            const std::string& name) {
  auto it = m.counters().find(name);
  return it == m.counters().end() ? 0.0 : static_cast<double>(it->second);
}

std::unique_ptr<Workload> make_office18(const Context& ctx);
std::unique_ptr<Workload> make_campus(const Context& ctx);
std::unique_ptr<Workload> make_city(const Context& ctx);
std::unique_ptr<Workload> make_policy(const Context& ctx);

/// Trains (once) and caches the policy office18-dynamic deploys.
void prepare_policy(const Context& ctx);

}  // namespace perfbench
