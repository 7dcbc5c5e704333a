// office18-dynamic: the paper's own workload (Fig. 4c/4d).
//
// The 18-node office under daytime ambient interference plus the dynamic
// jamming schedule, run for the 27-minute timeline by the DQN (dimmer), PID
// and static-LWB controllers, two trials each. The trial matrix runs
// through exp::Campaign, so every batch also writes and merges journals.
// The seed picks the trials' protocol seeds.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/pid.hpp"
#include "core/controller.hpp"
#include "core/pretrained.hpp"
#include "core/protocol.hpp"
#include "core/scenarios.hpp"
#include "decorators.hpp"
#include "digest.hpp"
#include "exp/campaign.hpp"
#include "phy/link_model.hpp"
#include "phy/topology.hpp"
#include "replay.hpp"
#include "rl/quantized.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace dimmer;
namespace fs = std::filesystem;

constexpr int kRounds = 27 * 60 / 4;  // the 27-minute timeline, 4 s rounds
constexpr int kTrialsPerController = 2;
const char* const kControllers[] = {"dimmer", "pid", "lwb"};
const sim::TimeUs kOrigin = sim::hours(10);

std::string policy_path(const Context& ctx) {
  return ctx.work_dir + "/dimmer_dqn.mlp";
}

double metric(const exp::TrialResult& r, const char* key) {
  auto it = r.metrics.find(key);
  return it == r.metrics.end() ? 0.0 : it->second;
}

class Office18 final : public Workload {
 public:
  explicit Office18(Context ctx) : ctx_(std::move(ctx)) {}

  const char* unit() const override { return "round"; }

  void setup() override {
    const double t0 = now_s();
    topo_ = std::make_unique<phy::Topology>(phy::make_office18_topology());
    topology_s_ = now_s() - t0;
    field_ = std::make_unique<phy::InterferenceField>();
    core::add_office_ambient(*field_, *topo_);
    core::add_dynamic_jamming(*field_, *topo_, phy::kControlChannel, kOrigin);
    if (!fs::exists(policy_path(ctx_)))
      throw std::runtime_error("no cached policy at " + policy_path(ctx_) +
                               "; run with --prepare first");
    policy_ = core::load_or_train_policy(policy_path(ctx_),
                                         core::PretrainedOptions{});
    sources_.clear();
    for (phy::NodeId i = 1; i < topo_->size(); ++i) sources_.push_back(i);
    sources_.push_back(0);
  }

  Batch run_batch(std::uint64_t seed, Tracer* tracer) override {
    std::vector<exp::TrialSpec> specs;
    for (const char* name : kControllers)
      for (int k = 0; k < kTrialsPerController; ++k) {
        exp::TrialSpec s;
        s.scenario = name;
        s.seed = util::hash_u64(seed, static_cast<std::uint64_t>(k));
        specs.push_back(std::move(s));
      }

    exp::CampaignOptions opt;
    opt.dir = ctx_.work_dir + "/office18-campaign";
    opt.shards = 1;
    opt.trial_timeout_s = 0.0;
    fs::remove_all(opt.dir);
    const bool traced = tracer != nullptr;
    const double t0 = now_s();
    exp::CampaignReport report;
    {
      ScopedSpan span(tracer, "exp.campaign.run");
      report = exp::Campaign(opt).run(
          specs, [this, traced](const exp::TrialSpec& spec, util::Pcg32&) {
            return trial(spec, traced);
          });
    }
    const double run_s = now_s() - t0;

    Batch b;
    double journal_bytes = 0.0, journal_records = 0.0;
    for (const fs::directory_entry& e : fs::directory_iterator(opt.dir)) {
      const std::string name = e.path().filename().string();
      if (name.rfind("shard_", 0) != 0 ||
          name.find(".attempts") != std::string::npos ||
          e.path().extension() != ".jsonl")
        continue;
      journal_bytes += static_cast<double>(e.file_size());
      std::ifstream in(e.path());
      std::string line;
      while (std::getline(in, line)) journal_records += 1.0;
    }
    fs::remove_all(opt.dir);

    Digest d;
    double rel_all = 0.0, radio_all = 0.0, trial_s = 0.0;
    std::map<std::string, double> rel_by, radio_by;
    for (const exp::Trial& t : report.trials) {
      const exp::TrialResult& r = t.result;
      if (!r.ok) {
        b.errors.push_back("trial " + t.spec.scenario + " failed: " + r.error);
        continue;
      }
      const double rel = metric(r, "reliability");
      if (!(rel >= 0.0 && rel <= 1.0))
        b.errors.push_back("trial " + t.spec.scenario +
                           ": reliability outside [0, 1]");
      d.text(t.spec.scenario);
      d.u64(static_cast<std::uint64_t>(metric(r, "digest_hi")));
      d.u64(static_cast<std::uint64_t>(metric(r, "digest_lo")));
      rel_all += rel;
      radio_all += metric(r, "radio_on_ms");
      rel_by[t.spec.scenario] += rel / kTrialsPerController;
      radio_by[t.spec.scenario] +=
          metric(r, "radio_on_ms") / kTrialsPerController;
      trial_s += r.wall_seconds;
      auto it = r.series.find("round_ms");
      if (it != r.series.end())
        b.unit_ms.insert(b.unit_ms.end(), it->second.begin(), it->second.end());
      if (!traced) continue;
      for (const char* k :
           {"core.protocol.round_s", "core.protocol.self_s",
            "core.controller.decide_s", "core.controller.decisions",
            "n_tx_sum", "phy.link.prepare_s", "phy.link.prepare_calls",
            "phy.link.rebuilds"})
        b.layers[k] += metric(r, k);
      for (const char* k : {"flood.runs", "flood.steps", "flood.transmissions",
                            "flood.receivers", "lwb.rounds", "lwb.data_slots",
                            "lwb.silent_slots"})
        b.layers[k] += counter_value(r.registry, k);
    }
    b.digest = d.value();
    const double n = static_cast<double>(report.trials.size());
    b.outputs.push_back({"reliability", "ratio", rel_all / n});
    b.outputs.push_back({"radio_on_ms", "ms", radio_all / n});
    for (const auto& [name, v] : rel_by)
      b.outputs.push_back({"reliability." + name, "ratio", v});
    for (const auto& [name, v] : radio_by)
      b.outputs.push_back({"radio_on_ms." + name, "ms", v});

    const auto& c = report.counters.counters();
    auto campaign_count = [&c](const char* k) {
      auto it = c.find(k);
      return it == c.end() ? 0.0 : static_cast<double>(it->second);
    };
    b.layers["exp.campaign.run_s"] = run_s;
    b.layers["exp.trial_s"] = trial_s;
    b.layers["exp.campaign.overhead_s"] = run_s - trial_s;
    b.layers["exp.journal.bytes"] = journal_bytes;
    b.layers["exp.journal.records"] = journal_records;
    b.layers["exp.campaign.retries"] = campaign_count("campaign.retries");
    b.layers["exp.campaign.worker_deaths"] =
        campaign_count("campaign.worker_deaths");
    return b;
  }

  void finish_layers(LayerMap& l,
                     const std::map<std::string, SpanTotals>&) override {
    const double n = topo_->size();
    l["phy.topology.build_s"] = topology_s_;
    l["phy.topology.gain_nnz"] = static_cast<double>(topo_->gain_nnz());
    l["phy.topology.bytes"] = static_cast<double>(topo_->gain_storage_bytes());
    // CachedLinkModel holds one dense n x n mW matrix.
    l["phy.link.nnz"] = n * n;
    l["phy.link.bytes"] = n * n * sizeof(double);
    l["flood.node_steps"] = l["flood.steps"] * n;
    if (l["core.controller.decisions"] > 0.0)
      l["core.controller.mean_n_tx"] =
          l["n_tx_sum"] / l["core.controller.decisions"];

    const lwb::RoundConfig rc;
    std::vector<sim::TimeUs> slots;
    for (int r = 0; r < kRounds; ++r)
      for (std::size_t s = 0; s <= sources_.size(); ++s)
        slots.push_back(kOrigin + r * core::ProtocolConfig{}.round_period +
                        static_cast<sim::TimeUs>(s) *
                            (rc.slot_len_us + rc.slot_gap_us));
    const int steps = l["flood.runs"] > 0.0
                          ? static_cast<int>(l["flood.steps"] / l["flood.runs"])
                          : 1;
    const ReplayResult r = replay_interference(
        *field_, *topo_, slots, steps, phy::kControlChannel, 300000);
    l["phy.interference.sources"] = static_cast<double>(field_->size());
    l["phy.interference.sample_calls"] = static_cast<double>(r.calls);
    l["phy.interference.sample_ns"] = r.ns_per_call;
  }

 private:
  std::unique_ptr<core::AdaptivityController> make_controller(
      const std::string& name) const {
    if (name == "dimmer")
      return std::make_unique<core::DqnController>(rl::QuantizedMlp(*policy_),
                                                   core::FeatureConfig{});
    if (name == "pid") return std::make_unique<baselines::PidController>();
    return std::make_unique<core::StaticController>(3);
  }

  // Runs inside a campaign worker process.
  exp::TrialResult trial(const exp::TrialSpec& spec, bool traced) const {
    Tracer tracer;
    Tracer* t = traced ? &tracer : nullptr;
    core::ProtocolConfig cfg;
    cfg.start_time = kOrigin;
    phy::CachedLinkModel base(*topo_);
    TimedLinkModel links(base, t);
    auto owned = std::make_unique<TimedController>(
        make_controller(spec.scenario), t);
    const TimedController& controller = *owned;
    core::DimmerNetwork net(links, *field_, cfg, std::move(owned), 0,
                            spec.seed);
    exp::TrialResult r;
    if (traced) net.set_instrumentation({nullptr, &r.registry});

    std::vector<double>& round_ms = r.series["round_ms"];
    round_ms.reserve(kRounds);
    Digest d;
    core::RoundStats rs;
    double rel = 0.0, radio = 0.0;
    for (int k = 0; k < kRounds; ++k) {
      const double t0 = now_s();
      {
        ScopedSpan span(t, "core.protocol.round");
        net.run_round_into(sources_, rs);
      }
      round_ms.push_back((now_s() - t0) * 1e3);
      d.i64(rs.n_tx);
      d.f64(rs.reliability);
      d.f64(rs.radio_on_ms);
      d.i64(rs.lossless ? 1 : 0);
      d.i64(rs.total_radio_on_us);
      rel += rs.reliability;
      radio += rs.radio_on_ms;
    }
    r.metrics["reliability"] = rel / kRounds;
    r.metrics["radio_on_ms"] = radio / kRounds;
    // A double holds 32-bit halves exactly through the journal.
    r.metrics["digest_hi"] = static_cast<double>(d.value() >> 32);
    r.metrics["digest_lo"] = static_cast<double>(d.value() & 0xffffffffULL);
    if (traced) {
      const auto totals = tracer.totals();
      auto get = [&totals](const char* name) { return totals_of(totals, name); };
      r.metrics["core.protocol.round_s"] = get("core.protocol.round").total_s;
      r.metrics["core.protocol.self_s"] = get("core.protocol.round").self_s;
      r.metrics["core.controller.decide_s"] =
          get("core.controller.decide").total_s;
      r.metrics["phy.link.prepare_s"] = get("phy.link.prepare").total_s;
      r.metrics["core.controller.decisions"] =
          static_cast<double>(controller.decisions());
      r.metrics["n_tx_sum"] = static_cast<double>(controller.n_tx_sum());
      r.metrics["phy.link.prepare_calls"] = static_cast<double>(links.calls());
      r.metrics["phy.link.rebuilds"] = base.rebuilds();
      const fs::path dir = fs::path(ctx_.work_dir) / "traces";
      fs::create_directories(dir);
      (void)tracer.write_json(
          (dir / ("office18-dynamic-" + spec.scenario + "-" +
                  std::to_string(spec.seed) + ".json"))
              .string());
    }
    return r;
  }

  Context ctx_;
  std::unique_ptr<phy::Topology> topo_;
  std::unique_ptr<phy::InterferenceField> field_;
  std::optional<rl::Mlp> policy_;  // Mlp has no public default state
  std::vector<phy::NodeId> sources_;
  double topology_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_office18(const Context& ctx) {
  return std::make_unique<Office18>(ctx);
}

void prepare_policy(const Context& ctx) {
  (void)core::load_or_train_policy(policy_path(ctx), core::PretrainedOptions{},
                                   &std::cerr);
}

}  // namespace perfbench
