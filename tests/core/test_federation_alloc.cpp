// Steady-state allocation audit for the federated round loop (DESIGN.md
// §15): once a few warm-up epochs have grown every pooled buffer — per-cell
// RoundStats/RoundResult pools, scheduler scratch, source/origin lists, and
// the gateway bridge queues — Federation::run_epoch with workers=1 must
// perform ZERO heap allocations, end to end across every cell.
//
// Same operator-new instrumentation as tests/flood/test_workspace.cpp; this
// file lives in its own test binary so the counter never sees other suites'
// traffic. workers=1 is the audited mode (thread spawning allocates by
// nature and is only entered when workers > 1).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/federation.hpp"
#include "phy/topology.hpp"

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

namespace dimmer::core {
namespace {

TEST(FederationAlloc, RunEpochIsAllocationFreeAfterWarmup) {
  phy::Topology topo =
      phy::make_campus_topology_culled(96, 1, phy::gain_cull_floor_db(
                                                  phy::RadioConstants{}, 20.0));
  phy::InterferenceField field;
  FederationConfig fc;
  fc.n_cells = 4;
  fc.workers = 1;
  Federation fed(topo, field, fc,
                 [](int) { return std::make_unique<StaticController>(3); }, 3);

  // One flow per cell so every cell schedules, bridges, and accounts.
  for (int c = 0; c < fed.cell_count(); ++c) {
    const auto& m = fed.cell(c).members();
    phy::NodeId src = m.back();
    if (src == fed.gateway(c)) src = m[m.size() - 2];
    (void)fed.add_flow(src, fed.cell(c).network().config().round_period);
  }

  // Warm-up: grows schedulers' scratch, per-cell flood workspaces and CSR
  // caches, source/origin lists, and cycles the bridge queues through their
  // peak occupancy at every tree depth.
  for (int e = 0; e < 8; ++e) (void)fed.run_epoch();

  const long before = g_allocs.load(std::memory_order_relaxed);
  std::uint64_t delivered = 0;
  for (int e = 0; e < 20; ++e) delivered += fed.run_epoch().delivered;
  const long after = g_allocs.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0)
      << "steady-state federated epochs must not allocate (got "
      << (after - before) << " allocations over 20 epochs)";
  // The audit must cover a loop that actually moves traffic.
  EXPECT_GT(delivered, 0u);
}

}  // namespace
}  // namespace dimmer::core
