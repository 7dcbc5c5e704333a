// city-federation: 1024 nodes in 8 federated LWB cells (bench_city_scale's
// deployment), office ambient interference, static-LWB and PID controllers,
// a steady trial and a coordinator-kill trial each. The deployment is fixed;
// the seed picks the federations' seeds.
#include <memory>
#include <string>
#include <vector>

#include "baselines/pid.hpp"
#include "core/controller.hpp"
#include "core/federation.hpp"
#include "core/scenarios.hpp"
#include "decorators.hpp"
#include "digest.hpp"
#include "phy/topology.hpp"
#include "replay.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace dimmer;

constexpr int kNodes = 1024;
constexpr int kCells = 8;
constexpr int kEpochs = 45;
constexpr int kKillEpoch = kEpochs / 3;
constexpr std::uint64_t kShadowSeed = 42;
// One federation worker: with two, thread hand-offs dominated the epoch tail
// and made unit_ms_p99 unsteady from run to run on a 4-vCPU host.
constexpr int kWorkers = 1;

/// The cell farthest from the root: the coordinator-kill victim.
int deepest_cell(const core::Federation& fed) {
  int best = 0, best_depth = -1;
  for (int c = 0; c < fed.cell_count(); ++c) {
    int depth = 0;
    for (int p = fed.parent(c); p != -1; p = fed.parent(p)) ++depth;
    if (depth > best_depth) {
      best_depth = depth;
      best = c;
    }
  }
  return best;
}

class City final : public Workload {
 public:
  const char* unit() const override { return "epoch"; }

  void setup() override {
    const double t0 = now_s();
    topo_ = std::make_unique<phy::Topology>(phy::make_campus_topology_culled(
        kNodes, kShadowSeed,
        phy::gain_cull_floor_db(phy::RadioConstants{}, 20.0)));
    topology_s_ = now_s() - t0;
    field_ = std::make_unique<phy::InterferenceField>();
    core::add_office_ambient(*field_, *topo_);
    // One federation as the trials build it: partition, cells, links.
    core::Federation fed(*topo_, *field_, config(), factory("lwb", nullptr),
                         0);
    (void)fed.cell_count();
  }

  Batch run_batch(std::uint64_t seed, Tracer* tracer) override {
    Batch b;
    Digest d;
    double ratio_sum = 0.0;
    int trials = 0;
    for (const char* scenario : {"steady", "coord-kill"})
      for (const char* proto : {"lwb", "pid"}) {
        const bool kill = std::string(scenario) == "coord-kill";
        controllers_.clear();
        core::Federation fed(
            *topo_, *field_, config(), factory(proto, tracer),
            util::hash_u64(seed, static_cast<std::uint64_t>(trials)));
        add_flows(fed);
        const int victim = deepest_cell(fed);
        std::uint64_t delivered_pre_kill = 0;
        for (int e = 0; e < kEpochs; ++e) {
          if (kill && e == kKillEpoch) {
            delivered_pre_kill = fed.packets_delivered();
            fed.fail_cell_leadership(victim);
          }
          const double t0 = now_s();
          core::FederationStats st;
          {
            ScopedSpan span(tracer, "core.federation.epoch");
            st = fed.run_epoch();
          }
          // Epoch 0 builds every cell's CSR link view on its first flood:
          // lazy set-up, simulated and digested but not timed as a unit.
          if (e > 0) b.unit_ms.push_back((now_s() - t0) * 1e3);
          d.u64(st.epoch);
          d.i64(st.cells_alive);
          d.i64(st.orphaned_cells);
          d.f64(st.min_reliability);
          d.f64(st.mean_reliability);
          d.u64(st.originated);
          d.u64(st.bridged);
          d.u64(st.delivered);
          d.i64(st.total_radio_on_us);
          d.i64(st.handoffs);
          if (!(st.mean_reliability >= 0.0 && st.mean_reliability <= 1.0))
            b.errors.push_back(std::string(proto) + "@" + scenario +
                               ": reliability outside [0, 1]");
        }
        check(fed, kill, delivered_pre_kill, std::string(proto) + "@" + scenario,
              b.errors);
        const double ratio =
            fed.packets_originated() > 0
                ? static_cast<double>(fed.packets_delivered()) /
                      static_cast<double>(fed.packets_originated())
                : 0.0;
        ratio_sum += ratio;
        b.outputs.push_back(
            {std::string("delivery_ratio.") + proto + "@" + scenario, "ratio",
             ratio});
        ++trials;

        b.layers["core.federation.handoffs"] += fed.handoff_count();
        b.layers["core.federation.dropped"] +=
            static_cast<double>(fed.packets_dropped());
        for (int c = 0; c < fed.cell_count(); ++c) {
          const obs::MetricsRegistry& m = fed.cell_metrics(c);
          for (const char* k : {"flood.runs", "flood.steps",
                                "flood.transmissions", "flood.receivers",
                                "lwb.rounds", "lwb.data_slots",
                                "lwb.silent_slots"})
            b.layers[k] += counter_value(m, k);
          b.layers["flood.node_steps"] +=
              counter_value(m, "flood.steps") * fed.cell(c).size();
        }
        for (const TimedController* c : controllers_) {
          b.layers["core.controller.decisions"] +=
              static_cast<double>(c->decisions());
          b.layers["n_tx_sum"] += static_cast<double>(c->n_tx_sum());
        }
      }
    controllers_.clear();
    b.digest = d.value();
    b.outputs.insert(b.outputs.begin(),
                     Metric{"delivery_ratio", "ratio", ratio_sum / trials});
    return b;
  }

  void finish_layers(LayerMap& l,
                     const std::map<std::string, SpanTotals>& spans) override {
    l["phy.topology.build_s"] = topology_s_;
    l["phy.topology.gain_nnz"] = static_cast<double>(topo_->gain_nnz());
    l["phy.topology.bytes"] = static_cast<double>(topo_->gain_storage_bytes());
    l["core.federation.epoch_s"] = totals_of(spans, "core.federation.epoch").total_s;
    l["core.federation.workers"] = kWorkers;
    l["core.controller.decide_s"] = totals_of(spans, "core.controller.decide").total_s;
    if (l["core.controller.decisions"] > 0.0)
      l["core.controller.mean_n_tx"] =
          l["n_tx_sum"] / l["core.controller.decisions"];

    const lwb::RoundConfig rc;
    const sim::TimeUs period = core::ProtocolConfig{}.round_period;
    std::vector<sim::TimeUs> slots;
    for (int e = 0; e < kEpochs; ++e)
      for (int s = 0; s < 3; ++s)
        slots.push_back(e * period + s * (rc.slot_len_us + rc.slot_gap_us));
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
  core::FederationConfig config() const {
    core::FederationConfig fc;
    fc.n_cells = kCells;
    fc.sink = 0;
    fc.sparse_links = true;
    fc.workers = kWorkers;
    return fc;
  }

  core::Federation::ControllerFactory factory(std::string proto,
                                              Tracer* tracer) {
    return [this, proto, tracer](int) {
      std::unique_ptr<core::AdaptivityController> inner;
      if (proto == "pid")
        inner = std::make_unique<baselines::PidController>();
      else
        inner = std::make_unique<core::StaticController>(3);
      auto timed = std::make_unique<TimedController>(std::move(inner), tracer);
      controllers_.push_back(timed.get());
      return std::unique_ptr<core::AdaptivityController>(std::move(timed));
    };
  }

  /// Two periodic flows per cell, clear of the auto-assigned leadership.
  static void add_flows(core::Federation& fed) {
    const sim::TimeUs ipi = core::ProtocolConfig{}.round_period;
    for (int c = 0; c < fed.cell_count(); ++c) {
      const auto& m = fed.cell(c).members();
      (void)fed.add_flow(m[m.size() / 2], ipi);
      phy::NodeId hi = m[m.size() - 2];
      if (hi == fed.gateway(c)) hi = m[m.size() - 3];
      (void)fed.add_flow(hi, ipi);
    }
  }

  static void check(const core::Federation& fed, bool kill,
                    std::uint64_t delivered_pre_kill, const std::string& label,
                    std::vector<std::string>& errors) {
    if (fed.packets_originated() == 0)
      errors.push_back(label + ": no packets originated");
    if (kill) {
      if (fed.handoff_count() < 1)
        errors.push_back(label + ": coordinator kill produced no handoff");
      if (fed.lost()) errors.push_back(label + ": federation lost");
      if (fed.packets_delivered() <= delivered_pre_kill)
        errors.push_back(label + ": no deliveries after the handoff");
    } else if (fed.handoff_count() != 0) {
      errors.push_back(label + ": spurious handoff");
    }
  }

  std::unique_ptr<phy::Topology> topo_;
  std::unique_ptr<phy::InterferenceField> field_;
  std::vector<const TimedController*> controllers_;  // owned by the cells
  double topology_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_city(const Context&) {
  return std::make_unique<City>();
}

}  // namespace perfbench
