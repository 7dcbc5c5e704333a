// Steady-state allocation audit for the reusable flood workspace
// (DESIGN.md §10): after a warm-up flood has grown every buffer to capacity,
// repeated GlossyFlood::run_into and RoundExecutor::run_round_into calls
// must perform ZERO heap allocations.
//
// The audit instruments global operator new/delete with a counter. Only the
// bracketed region between alloc_count snapshots is attributed to the flood
// path; gtest's own bookkeeping happens outside the brackets.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/scenarios.hpp"
#include "flood/glossy.hpp"
#include "flood/workspace.hpp"
#include "lwb/round.hpp"
#include "phy/link_model.hpp"
#include "phy/topology.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<long> g_allocs{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dimmer::flood {
namespace {

TEST(FloodWorkspaceAlloc, RunIntoIsAllocationFreeAfterWarmup) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  core::add_static_jamming(field, topo, 0.3);
  GlossyFlood engine(topo, field);
  std::vector<NodeFloodConfig> cfgs(18, NodeFloodConfig{3, true});
  cfgs[5].n_tx = 0;

  FloodWorkspace ws;
  FloodResult result;
  util::Pcg32 rng(7);

  FloodParams params;
  // Warm-up: grows the workspace, the result buffers, and the engine's
  // cached link matrix.
  engine.run_into(0, cfgs, params, rng, ws, result);

  const long before = g_allocs.load(std::memory_order_relaxed);
  for (int k = 0; k < 50; ++k) {
    params.slot_start_us = k * sim::ms(25);
    engine.run_into(k % 18, cfgs, params, rng, ws, result);
  }
  const long after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "steady-state floods must not allocate (got "
      << (after - before) << " allocations over 50 floods)";
  EXPECT_TRUE(result.nodes.size() == 18u);
}

TEST(FloodWorkspaceAlloc, ManySourceFieldIsAllocationFreeAfterWarmup) {
  // The DQN training field (150+ sources): the warm-up flood builds the
  // engine's interference view; the per-flood prefilter and per-step
  // evaluation then reuse its storage.
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  core::add_training_schedule(field, topo, sim::hours(10), 0x7A11ULL);
  ASSERT_GE(field.size(), 150u);
  GlossyFlood engine(topo, field);
  std::vector<NodeFloodConfig> cfgs(18, NodeFloodConfig{3, true});

  FloodWorkspace ws;
  FloodResult result;
  util::Pcg32 rng(19);

  FloodParams params;
  params.slot_start_us = sim::hours(9);
  engine.run_into(0, cfgs, params, rng, ws, result);

  const long before = g_allocs.load(std::memory_order_relaxed);
  for (int k = 0; k < 50; ++k) {
    params.slot_start_us = sim::hours(9) + k * sim::seconds(20);
    engine.run_into(k % 18, cfgs, params, rng, ws, result);
  }
  const long after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "steady-state floods under a 150-source field must not allocate (got "
      << (after - before) << " allocations over 50 floods)";
}

TEST(FloodWorkspaceAlloc, SparseEngineRunIntoIsAllocationFreeAfterWarmup) {
  // The sparse scatter path has its own steady state: the CSR build and the
  // warm-up flood size every buffer; after that, repeated floods at the same
  // TX power must not touch the heap — including the zero-power listener
  // skip, which must not shrink or regrow any buffer. The topology is
  // culled, so the engine scatters: over full rows it would silently take
  // the sweep instead.
  phy::Topology topo = phy::make_campus_topology_culled(
      96, 1, phy::gain_cull_floor_db(phy::RadioConstants{}, 20.0));
  phy::InterferenceField field;
  core::add_office_ambient(field, topo);
  phy::SparseLinkModel links(topo);
  ASSERT_FALSE(links.prepare_sparse(FloodParams{}.tx_power_dbm)->full_rows());
  GlossyFlood engine(links, field);
  std::vector<NodeFloodConfig> cfgs(96, NodeFloodConfig{2, true});
  cfgs[7].n_tx = 0;

  FloodWorkspace ws;
  FloodResult result;
  util::Pcg32 rng(13);

  FloodParams params;
  engine.run_into(0, cfgs, params, rng, ws, result);
  ASSERT_EQ(links.rebuilds(), 1);

  const long before = g_allocs.load(std::memory_order_relaxed);
  for (int k = 0; k < 50; ++k) {
    params.slot_start_us = k * sim::ms(25);
    engine.run_into(k % 96, cfgs, params, rng, ws, result);
  }
  const long after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "steady-state sparse floods must not allocate (got "
      << (after - before) << " allocations over 50 floods)";
  EXPECT_EQ(links.rebuilds(), 1);  // one CSR build serves every flood
  EXPECT_TRUE(result.nodes.size() == 96u);
}

TEST(FloodWorkspaceAlloc, RoundExecutorSteadyStateIsAllocationFree) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  core::add_static_jamming(field, topo, 0.3);
  lwb::RoundConfig cfg;
  lwb::RoundExecutor exec(topo, field, cfg);

  std::vector<lwb::NodeState> states(18);
  for (auto& s : states) s.n_tx = 3;
  std::vector<phy::NodeId> sources = {2, 7, 11, 15};
  util::Pcg32 rng(11);
  lwb::RoundResult result;

  // Warm-up round sizes every nested buffer (incl. per-slot FloodResults).
  exec.run_round_into(0, 0, 0, sources, 3, states, rng, nullptr, result);

  const long before = g_allocs.load(std::memory_order_relaxed);
  for (std::uint64_t r = 1; r <= 20; ++r) {
    exec.run_round_into(r * sim::seconds(1), r, 0, sources, 3, states, rng,
                        nullptr, result);
  }
  const long after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "steady-state rounds must not allocate (got "
      << (after - before) << " allocations over 20 rounds)";
}

TEST(FloodWorkspaceAlloc, WorkspaceAdaptsAcrossTopologySizes) {
  // One workspace serving engines of different sizes stays correct: buffers
  // resize up and down without stale state leaking between floods.
  phy::Topology small = phy::make_line_topology(4, 10.0);
  phy::Topology big = phy::make_office18_topology();
  phy::InterferenceField field;
  GlossyFlood engine_small(small, field);
  GlossyFlood engine_big(big, field);

  FloodWorkspace ws;
  FloodResult r;
  util::Pcg32 rng(3);
  std::vector<NodeFloodConfig> cfg_small(4, NodeFloodConfig{2, true});
  std::vector<NodeFloodConfig> cfg_big(18, NodeFloodConfig{2, true});

  engine_big.run_into(0, cfg_big, FloodParams{}, rng, ws, r);
  ASSERT_EQ(r.nodes.size(), 18u);

  engine_small.run_into(0, cfg_small, FloodParams{}, rng, ws, r);
  ASSERT_EQ(r.nodes.size(), 4u);
  EXPECT_TRUE(r.nodes[0].received);
  EXPECT_GE(r.nodes[0].transmissions, 1);

  engine_big.run_into(5, cfg_big, FloodParams{}, rng, ws, r);
  ASSERT_EQ(r.nodes.size(), 18u);
  EXPECT_EQ(r.initiator, 5);
}

}  // namespace
}  // namespace dimmer::flood
