// campus-flood: Glossy floods over a 4096-node culled campus deployment.
//
// The deployment is fixed (one shadowing seed); the seed picks the initiator
// sequence and the flood RNG stream. The interference field is empty, so
// topology construction and the CSR flood kernel carry the cost.
#include <memory>
#include <vector>

#include "decorators.hpp"
#include "digest.hpp"
#include "flood/glossy.hpp"
#include "flood/workspace.hpp"
#include "phy/sparse_link_model.hpp"
#include "phy/topology.hpp"
#include "replay.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace dimmer;

constexpr int kNodes = 4096;
constexpr int kFloodsPerBatch = 32;
constexpr std::uint64_t kShadowSeed = 42;
constexpr double kCullMarginDb = 20.0;

flood::FloodParams params_for(int k) {
  flood::FloodParams p;
  // Campus floods cross tens of hops: a 60 ms slot, as in bench_flood_scale.
  p.slot_len_us = sim::ms(60);
  p.slot_start_us = static_cast<sim::TimeUs>(k) * sim::ms(80);
  return p;
}

class Campus final : public Workload {
 public:
  const char* unit() const override { return "flood"; }

  void setup() override {
    engine_.reset();
    timed_.reset();
    links_.reset();
    topo_.reset();
    const double t0 = now_s();
    topo_ = std::make_unique<phy::Topology>(phy::make_campus_topology_culled(
        kNodes, kShadowSeed,
        phy::gain_cull_floor_db(phy::RadioConstants{}, kCullMarginDb)));
    const double t1 = now_s();
    links_ = std::make_unique<phy::SparseLinkModel>(*topo_);
    (void)links_->prepare_sparse(flood::FloodParams{}.tx_power_dbm);
    const double t2 = now_s();
    topology_s_ = t1 - t0;
    link_build_s_ = t2 - t1;
    timed_ = std::make_unique<TimedLinkModel>(*links_);
    engine_ = std::make_unique<flood::GlossyFlood>(*timed_, field_);
    cfgs_.assign(kNodes, flood::NodeFloodConfig{2, true});
  }

  Batch run_batch(std::uint64_t seed, Tracer* tracer) override {
    timed_->set_tracer(tracer);
    const std::uint64_t calls_before = timed_->calls();
    util::Pcg32 rng(util::hash_u64(seed, 0xF100DULL));
    Batch b;
    Digest d;
    double delivery = 0.0;
    std::uint64_t steps = 0, tx = 0, rx = 0;
    b.unit_ms.reserve(kFloodsPerBatch);
    for (int k = 0; k < kFloodsPerBatch; ++k) {
      const auto initiator = static_cast<phy::NodeId>(
          util::hash_u64(seed, static_cast<std::uint64_t>(k)) % kNodes);
      const double t0 = now_s();
      {
        ScopedSpan span(tracer, "flood.run");
        engine_->run_into(initiator, cfgs_, params_for(k), rng, ws_, res_);
      }
      b.unit_ms.push_back((now_s() - t0) * 1e3);

      const flood::FloodResult::Summary sum = res_.summarize();
      const double ratio = res_.delivery_ratio();
      if (!(ratio >= 0.0 && ratio <= 1.0) || res_.steps_simulated <= 0)
        b.errors.push_back("flood " + std::to_string(k) +
                           ": delivery ratio outside [0, 1] or no steps");
      delivery += ratio;
      steps += static_cast<std::uint64_t>(res_.steps_simulated);
      tx += static_cast<std::uint64_t>(sum.transmissions);
      rx += static_cast<std::uint64_t>(sum.receivers);
      d.i64(res_.steps_simulated);
      for (const flood::NodeFloodResult& n : res_.nodes) {
        d.i64(n.received ? 1 : 0);
        d.i64(n.first_rx_step);
        d.i64(n.transmissions);
        d.i64(n.radio_on_us);
      }
    }
    b.digest = d.value();
    b.outputs.push_back({"delivery_ratio", "ratio", delivery / kFloodsPerBatch});
    b.layers["flood.steps"] = static_cast<double>(steps);
    b.layers["flood.node_steps"] = static_cast<double>(steps) * kNodes;
    b.layers["flood.transmissions"] = static_cast<double>(tx);
    b.layers["flood.receivers"] = static_cast<double>(rx);
    b.layers["phy.link.prepare_calls"] =
        static_cast<double>(timed_->calls() - calls_before);
    mean_steps_ = static_cast<int>(steps / kFloodsPerBatch);
    timed_->set_tracer(nullptr);
    return b;
  }

  void finish_layers(LayerMap& l,
                     const std::map<std::string, SpanTotals>& spans) override {
    l["phy.topology.build_s"] = topology_s_;
    l["phy.topology.gain_nnz"] = static_cast<double>(topo_->gain_nnz());
    l["phy.topology.bytes"] = static_cast<double>(topo_->gain_storage_bytes());
    // The CSR build at set-up plus every (cached) prepare call of a batch.
    l["phy.link.prepare_s"] = link_build_s_ + totals_of(spans, "phy.link.prepare").total_s;
    l["phy.link.rebuilds"] = links_->rebuilds();
    l["phy.link.nnz"] = static_cast<double>(links_->nnz());
    l["phy.link.bytes"] = static_cast<double>(links_->storage_bytes());
    l["flood.run_s"] = totals_of(spans, "flood.run").total_s;
    if (l["flood.node_steps"] > 0.0)
      l["flood.ns_per_node_step"] =
          l["flood.run_s"] * 1e9 / l["flood.node_steps"];
    std::vector<sim::TimeUs> slots;
    for (int k = 0; k < kFloodsPerBatch; ++k)
      slots.push_back(params_for(k).slot_start_us);
    const ReplayResult r = replay_interference(
        field_, *topo_, slots, mean_steps_, phy::kControlChannel, 200000);
    l["phy.interference.sources"] = static_cast<double>(field_.size());
    l["phy.interference.sample_calls"] = static_cast<double>(r.calls);
    l["phy.interference.sample_ns"] = r.ns_per_call;
  }

 private:
  phy::InterferenceField field_;  // empty: a clean band
  std::unique_ptr<phy::Topology> topo_;
  std::unique_ptr<phy::SparseLinkModel> links_;
  std::unique_ptr<TimedLinkModel> timed_;
  std::unique_ptr<flood::GlossyFlood> engine_;
  std::vector<flood::NodeFloodConfig> cfgs_;
  flood::FloodWorkspace ws_;
  flood::FloodResult res_;
  double topology_s_ = 0.0;
  double link_build_s_ = 0.0;
  int mean_steps_ = 1;
};

}  // namespace

std::unique_ptr<Workload> make_campus(const Context&) {
  return std::make_unique<Campus>();
}

}  // namespace perfbench
