// Scatter-vs-sweep differential suite for the flood engine's two row
// layouts (DESIGN.md §13). GlossyFlood sweeps a link view as a row-major
// matrix when every row is full and scatters CSR rows otherwise. On the same
// effective links the two must be bit-identical — every FloodResult field
// AND the RNG end-state — on every canonical topology, clean or jammed.
//
// The scatter side reaches the same links by appending one node far beyond
// any link's reach and keeping it out of the flood: the topology's gain
// floor culls its links, so no view has full rows, while every link among
// the original nodes keeps its bits.
//
// With real culling, results may legitimately differ in individual
// receptions, but the aggregate delivery ratio stays within a tight band of
// the unculled engine's (the culled power is provably below the noise
// floor; tests/phy/test_topology.cpp carries the bound).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/scenarios.hpp"
#include "flood/glossy.hpp"
#include "flood/workspace.hpp"
#include "phy/link_model.hpp"
#include "phy/topology.hpp"
#include "util/rng.hpp"

namespace dimmer::flood {
namespace {

/// `scatter` ran the far-node topology, `sweep` the original: the original
/// nodes must match field for field, and the far node sat the flood out.
void expect_identical(const FloodResult& sweep, const FloodResult& scatter) {
  ASSERT_EQ(sweep.nodes.size() + 1, scatter.nodes.size());
  ASSERT_EQ(sweep.participated.size() + 1, scatter.participated.size());
  EXPECT_EQ(sweep.initiator, scatter.initiator);
  EXPECT_EQ(sweep.steps_simulated, scatter.steps_simulated);
  for (std::size_t i = 0; i < sweep.nodes.size(); ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    EXPECT_EQ(sweep.participated[i], scatter.participated[i]);
    EXPECT_EQ(sweep.nodes[i].received, scatter.nodes[i].received);
    EXPECT_EQ(sweep.nodes[i].first_rx_step, scatter.nodes[i].first_rx_step);
    EXPECT_EQ(sweep.nodes[i].transmissions, scatter.nodes[i].transmissions);
    EXPECT_EQ(sweep.nodes[i].radio_on_us, scatter.nodes[i].radio_on_us);
  }
  EXPECT_FALSE(scatter.participated.back());
  EXPECT_FALSE(scatter.nodes.back().received);
  EXPECT_EQ(scatter.nodes.back().transmissions, 0);
}

void expect_same_rng_state(util::Pcg32 a, util::Pcg32 b) {
  // Same stream position, and the same Marsaglia spare state (a cached
  // spare would make the next normal() differ with aligned raw streams).
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
  for (int i = 0; i < 3; ++i) EXPECT_EQ(a.normal(), b.normal());
}

struct Case {
  phy::Topology topo;
  phy::InterferenceField field;
};

phy::Topology topo_for(const std::string& name) {
  if (name == "line") return phy::make_line_topology(8, 12.0);
  if (name == "grid") return phy::make_grid_topology(4, 4, 10.0);
  if (name == "office18") return phy::make_office18_topology();
  if (name == "campus") return phy::make_campus_topology(60);
  return phy::make_dcube48_topology();
}

Case make_case(const std::string& name, double jam_duty) {
  Case c{topo_for(name), phy::InterferenceField{}};
  if (jam_duty > 0.0 && (name == "office18" || name == "dcube48")) {
    core::add_static_jamming(c.field, c.topo, jam_duty);
  } else if (jam_duty > 0.0) {
    // Line/grid/campus have no office jammer positions; use ambient office
    // noise as the interference source instead.
    core::add_office_ambient(c.field, c.topo);
  }
  return c;
}

/// Culls the far node's links (about -350 dB) and keeps every link among
/// the original nodes (all above -160 dB).
constexpr double kFarFloor = -250.0;

/// `t` rebuilt with a gain floor, optionally with one node 1e8 m away
/// appended as the last id. The shadowing draw keys on the pair's ids, so
/// every link among the original nodes that the floor keeps has `t`'s bits.
phy::Topology rebuilt(const phy::Topology& t, double gain_floor_db,
                      bool far_node) {
  std::vector<phy::Vec2> pos;
  for (phy::NodeId i = 0; i < t.size(); ++i) pos.push_back(t.position(i));
  if (far_node) pos.push_back({1e8, 1e8});
  return phy::Topology(std::move(pos), t.path_loss(), t.radio(),
                       t.shadow_seed(), gain_floor_db);
}

/// The scatter backend: a SparseLinkModel over the far-node topology.
struct FarNodeLinks {
  explicit FarNodeLinks(const phy::Topology& t)
      : topo(rebuilt(t, kFarFloor, true)), links(topo) {
    const auto n = static_cast<std::size_t>(t.size());
    EXPECT_EQ(topo.gain_nnz(), n * n + 1);  // only the far links culled
  }

  phy::Topology topo;
  phy::SparseLinkModel links;
};

/// Appends the far node's config: it sits the flood out.
std::vector<NodeFloodConfig> with_far_config(
    std::vector<NodeFloodConfig> configs) {
  configs.push_back(NodeFloodConfig{3, false});
  return configs;
}

/// Runs the sweep engine (a SparseLinkModel over the case topology: full
/// rows) and the scatter engine from identical RNG states and asserts
/// bit-identity.
void run_scatter_vs_sweep(const std::string& topo_name, double jam_duty,
                          const std::vector<NodeFloodConfig>& configs,
                          phy::NodeId initiator, const FloodParams& params,
                          std::uint64_t seed) {
  Case c = make_case(topo_name, jam_duty);
  ASSERT_EQ(static_cast<int>(configs.size()), c.topo.size());

  phy::SparseLinkModel sweep_links(c.topo);
  ASSERT_TRUE(sweep_links.prepare_sparse(params.tx_power_dbm)->full_rows());
  GlossyFlood sweep_engine(sweep_links, c.field);
  util::Pcg32 rng_sweep(seed);
  FloodResult want = sweep_engine.run(initiator, configs, params, rng_sweep);

  FarNodeLinks far(c.topo);
  ASSERT_FALSE(far.links.prepare_sparse(params.tx_power_dbm)->full_rows());
  GlossyFlood scatter_engine(far.links, c.field);
  util::Pcg32 rng_scatter(seed);
  FloodResult got = scatter_engine.run(initiator, with_far_config(configs),
                                       params, rng_scatter);
  expect_identical(want, got);
  expect_same_rng_state(rng_sweep, rng_scatter);
}

std::vector<NodeFloodConfig> uniform_configs(int n, int n_tx) {
  return std::vector<NodeFloodConfig>(static_cast<std::size_t>(n),
                                      NodeFloodConfig{n_tx, true});
}

TEST(SparseDifferential, CleanTopologies) {
  for (const char* name : {"line", "grid", "office18", "dcube48", "campus"}) {
    SCOPED_TRACE(name);
    Case c = make_case(name, 0.0);
    const int n = c.topo.size();
    for (std::uint64_t seed : {1ULL, 77ULL, 4242ULL}) {
      run_scatter_vs_sweep(name, 0.0, uniform_configs(n, 3), 0, FloodParams{},
                           seed);
    }
  }
}

TEST(SparseDifferential, JammedTopologies) {
  for (const char* name : {"line", "grid", "office18", "dcube48"}) {
    SCOPED_TRACE(name);
    Case c = make_case(name, 0.3);
    const int n = c.topo.size();
    for (std::uint64_t seed : {9ULL, 1234ULL}) {
      FloodParams p;
      p.slot_start_us = sim::seconds(5);  // land inside jammer bursts
      run_scatter_vs_sweep(name, 0.3, uniform_configs(n, 3), n / 2, p, seed);
    }
  }
}

TEST(SparseDifferential, MixedBudgetsAndPassiveReceivers) {
  Case probe = make_case("dcube48", 0.0);
  const int n = probe.topo.size();
  auto cfgs = uniform_configs(n, 3);
  for (int i = 0; i < n; ++i) {
    cfgs[static_cast<std::size_t>(i)].n_tx = i % 4;  // includes n_tx = 0
  }
  for (int i = 0; i < n; i += 7)
    cfgs[static_cast<std::size_t>(i)].participates = false;
  cfgs[3].participates = true;  // keep the initiator participating
  for (std::uint64_t seed : {3ULL, 31ULL, 314ULL}) {
    run_scatter_vs_sweep("dcube48", 0.0, cfgs, 3, FloodParams{}, seed);
    run_scatter_vs_sweep("dcube48", 0.3, cfgs, 3, FloodParams{}, seed);
  }
}

TEST(SparseDifferential, AlternatingTxPowerRebindsCsr) {
  // Back-to-back floods at different TX powers through ONE scatter engine:
  // its CSR rebinds per power exactly like the sweep engine's cache does.
  Case c = make_case("office18", 0.3);
  const int n = c.topo.size();
  auto cfgs = uniform_configs(n, 3);
  const auto far_cfgs = with_far_config(cfgs);

  FarNodeLinks far(c.topo);
  GlossyFlood sweep_engine(c.topo, c.field);
  GlossyFlood scatter_engine(far.links, c.field);
  util::Pcg32 rng_sweep(55);
  util::Pcg32 rng_scatter(55);
  for (double power : {0.0, -7.0, 0.0, 3.0, -7.0}) {
    SCOPED_TRACE("tx_power_dbm " + std::to_string(power));
    FloodParams p;
    p.tx_power_dbm = power;
    FloodResult want = sweep_engine.run(0, cfgs, p, rng_sweep);
    FloodResult got = scatter_engine.run(0, far_cfgs, p, rng_scatter);
    expect_identical(want, got);
  }
  EXPECT_EQ(far.links.rebuilds(), 5);  // one CSR rebind per power change
  expect_same_rng_state(rng_sweep, rng_scatter);
}

TEST(SparseDifferential, RunIntoReusedBuffersMatchDense) {
  // Reused workspace/result buffers through the scatter loop must be as
  // invisible as through the sweep.
  Case c = make_case("dcube48", 0.3);
  const int n = c.topo.size();
  auto cfgs = uniform_configs(n, 3);
  cfgs[4].n_tx = 0;
  cfgs[9].participates = false;
  const auto far_cfgs = with_far_config(cfgs);

  FarNodeLinks far(c.topo);
  GlossyFlood sweep_engine(c.topo, c.field);
  GlossyFlood scatter_engine(far.links, c.field);
  FloodWorkspace ws;
  FloodResult reused;
  util::Pcg32 rng_sweep(88);
  util::Pcg32 rng_scatter(88);
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    FloodParams p;
    p.slot_start_us = round * sim::ms(40);
    phy::NodeId init = static_cast<phy::NodeId>((round * 3) % n);
    if (!cfgs[static_cast<std::size_t>(init)].participates) init += 1;
    FloodResult want = sweep_engine.run(init, cfgs, p, rng_sweep);
    scatter_engine.run_into(init, far_cfgs, p, rng_scatter, ws, reused);
    expect_identical(want, reused);
  }
  expect_same_rng_state(rng_sweep, rng_scatter);
}

TEST(SparseDifferential, CullingPreservesDeliveryRatioOnDcube48) {
  // With real culling the per-reception outcomes may differ (interference
  // sums lose sub-floor terms and RNG streams drift after the first skipped
  // listener), but the culled power is below the noise floor, so the
  // *aggregate* delivery ratio must stay put.
  Case c = make_case("dcube48", 0.3);
  const int n = c.topo.size();
  auto cfgs = uniform_configs(n, 2);

  // The topology floor that bounds the summed culled power at any listener
  // 10 dB under the noise floor (tests/phy/test_topology.cpp).
  const double margin_db =
      10.0 + 10.0 * std::log10(static_cast<double>(n - 1));
  const phy::Topology culled = rebuilt(
      c.topo, phy::gain_cull_floor_db(c.topo.radio(), margin_db), false);
  ASSERT_LT(culled.gain_nnz(), c.topo.gain_nnz());
  GlossyFlood dense_engine(c.topo, c.field);
  GlossyFlood sparse_engine(culled, c.field);

  const int kFloods = 200;
  util::Pcg32 rng_dense(2026);
  util::Pcg32 rng_sparse(2026);
  FloodWorkspace ws_dense, ws_sparse;
  FloodResult r_dense, r_sparse;
  double sum_dense = 0.0, sum_sparse = 0.0;
  for (int k = 0; k < kFloods; ++k) {
    FloodParams p;
    p.slot_start_us = k * sim::ms(25);
    const phy::NodeId init = static_cast<phy::NodeId>(k % n);
    dense_engine.run_into(init, cfgs, p, rng_dense, ws_dense, r_dense);
    sparse_engine.run_into(init, cfgs, p, rng_sparse, ws_sparse, r_sparse);
    sum_dense += r_dense.delivery_ratio();
    sum_sparse += r_sparse.delivery_ratio();
  }
  EXPECT_NEAR(sum_sparse / kFloods, sum_dense / kFloods, 0.05);
  EXPECT_GT(sum_sparse / kFloods, 0.5);  // the sparse floods actually flood
}

}  // namespace
}  // namespace dimmer::flood
