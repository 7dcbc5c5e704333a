// policy-train: the rl layer's training use, at a reduced budget.
//
// collect_traces -> train_dqn_on_traces -> evaluate_policy with the default
// Table-I features, on the office deployment under the training schedule.
// The interference schedule and the validation traces are fixed inputs; the
// seed picks the training traces' collection stream and every training
// stream. (A seed-drawn schedule made the collection cost itself vary by
// seed: units_per_s had an IQR/median of 0.30 over ten seeds.)
#include <cmath>
#include <memory>
#include <sstream>
#include <vector>

#include "core/scenarios.hpp"
#include "core/trace_env.hpp"
#include "digest.hpp"
#include "lwb/round.hpp"
#include "obs/trace.hpp"
#include "phy/topology.hpp"
#include "replay.hpp"
#include "rl/quantized.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace dimmer;

constexpr std::size_t kTraceSteps = 120;
constexpr std::size_t kValidationSteps = 60;
constexpr std::size_t kTrainSteps = 4000;
constexpr int kEvalEpisodes = 20;
const sim::TimeUs kStart = sim::hours(9) + sim::minutes(30);
constexpr std::uint64_t kTrainingSchedule = 0x5C4EDULL;
constexpr std::uint64_t kValidationSchedule = 0x7A11DULL;

/// Timestamps the agent's per-step "dqn_step" event: the only public hook
/// that marks the boundary of one training step from outside.
class StepClock final : public obs::TraceSink {
 public:
  void reset(std::size_t expected) {
    stamps_.clear();
    stamps_.reserve(expected);
  }
  void emit(const obs::TraceEvent&) override { stamps_.push_back(now_s()); }
  const std::vector<double>& stamps() const { return stamps_; }

 private:
  std::vector<double> stamps_;
};

/// A training interference schedule over `steps` 4 s rounds from kStart.
phy::InterferenceField schedule(const phy::Topology& topo, std::size_t steps,
                                std::uint64_t schedule_seed) {
  phy::InterferenceField field;
  core::add_training_schedule(
      field, topo,
      kStart + static_cast<sim::TimeUs>(steps) *
                   core::TraceCollectionConfig{}.round_period,
      schedule_seed);
  return field;
}

core::TraceDataset collect(const phy::Topology& topo, std::size_t steps,
                           std::uint64_t schedule_seed, std::uint64_t seed) {
  core::TraceCollectionConfig tc;
  tc.steps = steps;
  tc.seed = seed;
  tc.start_time = kStart;
  return core::collect_traces(topo, schedule(topo, steps, schedule_seed), tc);
}

class Policy final : public Workload {
 public:
  const char* unit() const override { return "train_step"; }

  void setup() override {
    const double t0 = now_s();
    topo_ = std::make_unique<phy::Topology>(phy::make_office18_topology());
    topology_s_ = now_s() - t0;
    validation_ = std::make_unique<core::TraceDataset>(
        collect(*topo_, kValidationSteps, kValidationSchedule, 0x7A11DULL));
  }

  Batch run_batch(std::uint64_t seed, Tracer* tracer) override {
    Batch b;
    obs::MetricsRegistry registry;
    core::TraceEnv::Config env_cfg;  // default features
    const double t0 = now_s();

    std::unique_ptr<core::TraceDataset> traces;
    {
      ScopedSpan span(tracer, "core.trace_env.collect");
      traces = std::make_unique<core::TraceDataset>(
          collect(*topo_, kTraceSteps, kTrainingSchedule,
                  util::hash_u64(seed, 0x717ACEULL)));
    }
    const double t1 = now_s();

    core::TrainerConfig tr;
    tr.total_steps = kTrainSteps;
    tr.seed = util::hash_u64(seed, 0xD9AULL);
    tr.dqn.epsilon_anneal_steps = kTrainSteps / 2;
    tr.dqn.lr_decay_steps = kTrainSteps * 3 / 4;
    clock_.reset(kTrainSteps);
    tr.instrumentation = {&clock_, tracer != nullptr ? &registry : nullptr};
    std::unique_ptr<rl::Mlp> net;
    {
      ScopedSpan span(tracer, "rl.dqn.train");
      net = std::make_unique<rl::Mlp>(
          core::train_dqn_on_traces(*traces, env_cfg, tr));
    }
    const double t2 = now_s();

    core::PolicyEvaluation ev;
    {
      ScopedSpan span(tracer, "core.trace_env.eval");
      ev = core::evaluate_policy(*validation_, rl::QuantizedMlp(*net), env_cfg,
                                 kEvalEpisodes,
                                 util::hash_u64(seed, 0x5E1ULL));
    }
    const double t3 = now_s();

    double prev = t1;
    for (double s : clock_.stamps()) {
      b.unit_ms.push_back((s - prev) * 1e3);
      prev = s;
    }
    b.timings["policy_train_s"] = {t3 - t0};

    std::ostringstream weights;
    net->save(weights);
    Digest d;
    d.text(weights.str());
    d.f64(ev.avg_reward);
    d.f64(ev.avg_reliability);
    d.f64(ev.avg_radio_on_ms);
    d.f64(ev.avg_n_tx);
    d.f64(ev.loss_rate);
    b.digest = d.value();
    if (!(ev.avg_reliability >= 0.0 && ev.avg_reliability <= 1.0) ||
        !std::isfinite(ev.avg_reward))
      b.errors.push_back("validation reliability outside [0, 1] or reward "
                         "not finite");
    if (b.unit_ms.size() != kTrainSteps)
      b.errors.push_back("expected one dqn_step event per training step");
    b.outputs = {{"policy_score", "reward", ev.avg_reward},
                 {"policy_reliability", "ratio", ev.avg_reliability},
                 {"policy_radio_on_ms", "ms", ev.avg_radio_on_ms},
                 {"policy_mean_n_tx", "n_tx", ev.avg_n_tx}};

    b.layers["core.trace_env.collect_s"] = t1 - t0;
    b.layers["rl.dqn.train_s"] = t2 - t1;
    b.layers["core.trace_env.eval_s"] = t3 - t2;
    b.layers["core.trace_env.steps"] = counter_value(registry, "trace_env.steps");
    b.layers["rl.dqn.train_steps"] = counter_value(registry, "dqn.train_steps");
    return b;
  }

  void finish_layers(LayerMap& l,
                     const std::map<std::string, SpanTotals>&) override {
    l["phy.topology.build_s"] = topology_s_;
    l["phy.topology.gain_nnz"] = static_cast<double>(topo_->gain_nnz());
    l["phy.topology.bytes"] = static_cast<double>(topo_->gain_storage_bytes());
    if (l["rl.dqn.train_steps"] > 0.0)
      l["rl.dqn.us_per_train_step"] =
          l["rl.dqn.train_s"] * 1e6 / l["rl.dqn.train_steps"];

    // The schedule the batches collect under, replayed over every round's
    // slots (control + 18 data slots).
    const phy::InterferenceField field =
        schedule(*topo_, kTraceSteps, kTrainingSchedule);
    const core::TraceCollectionConfig tc;
    const lwb::RoundConfig rc;
    std::vector<sim::TimeUs> slots;
    for (std::size_t r = 0; r < kTraceSteps; ++r)
      for (int s = 0; s <= topo_->size(); ++s)
        slots.push_back(kStart + static_cast<sim::TimeUs>(r) * tc.round_period +
                        s * (rc.slot_len_us + rc.slot_gap_us));
    const ReplayResult r =
        replay_interference(field, *topo_, slots, 8, phy::kControlChannel,
                            300000);
    l["phy.interference.sources"] = static_cast<double>(field.size());
    l["phy.interference.sample_calls"] = static_cast<double>(r.calls);
    l["phy.interference.sample_ns"] = r.ns_per_call;
  }

 private:
  std::unique_ptr<phy::Topology> topo_;
  std::unique_ptr<core::TraceDataset> validation_;
  StepClock clock_;
  double topology_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_policy(const Context&) {
  return std::make_unique<Policy>();
}

}  // namespace perfbench
