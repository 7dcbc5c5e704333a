// Steady-state allocation audit for the DQN train step (DESIGN.md §17):
// once the replay buffer is full, DqnAgent::observe -> train_step and the
// greedy select_action must perform ZERO heap allocations. Their batches,
// sample indices and gradients live in a workspace the agent sizes once.
//
// Same instrumentation as dimmer_test_flood_alloc: global operator new is
// counted, in a binary of its own so no other suite's traffic shows up, and
// only the bracketed region is attributed to the agent.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "rl/dqn.hpp"
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

namespace dimmer::rl {
namespace {

std::vector<Transition> make_transitions(std::size_t n, util::Pcg32& gen) {
  std::vector<Transition> out(n);
  for (Transition& t : out) {
    t.state.resize(31);
    t.next_state.resize(31);
    for (double& v : t.state) v = gen.uniform(-1.0, 1.0);
    for (double& v : t.next_state) v = gen.uniform(-1.0, 1.0);
    t.action = static_cast<int>(gen.uniform_below(3));
    t.reward = gen.uniform();
    t.done = gen.bernoulli(0.1);
    t.discount = gen.bernoulli(0.5) ? 0.49 : -1.0;
  }
  return out;
}

void expect_steady_state_allocates_nothing(bool double_dqn) {
  DqnConfig cfg;  // the paper's 31 -> 30 -> 3 net, batch 32
  cfg.double_dqn = double_dqn;
  cfg.replay_capacity = 400;
  cfg.min_replay_before_training = 100;
  cfg.target_sync_period = 50;  // syncs inside the audited region
  cfg.lr_decay_steps = 2000;
  DqnAgent agent(cfg, 11);
  util::Pcg32 gen(3), rng(4);

  // Warm-up: fill the replay buffer to capacity (its storage grows with
  // its content) and run some train steps.
  for (Transition& t : make_transitions(cfg.replay_capacity + 50, gen))
    agent.observe(std::move(t), rng);
  ASSERT_EQ(agent.replay().size(), cfg.replay_capacity);

  // Inputs are built outside the bracket; observe takes them by move.
  std::vector<Transition> batch = make_transitions(600, gen);
  const std::size_t trained_before = agent.train_steps();
  int actions = 0;
  const long before = g_allocs.load();
  for (Transition& t : batch) {
    actions += agent.select_action(t.state, rng);
    agent.observe(std::move(t), rng);
  }
  const long allocs = g_allocs.load() - before;
  EXPECT_EQ(allocs, 0) << "heap allocations in 600 steady-state steps";
  EXPECT_EQ(agent.train_steps() - trained_before, batch.size());
  EXPECT_GE(actions, 0);
}

TEST(DqnAlloc, SteadyStateDoubleDqnStepAllocatesNothing) {
  expect_steady_state_allocates_nothing(true);
}

TEST(DqnAlloc, SteadyStateVanillaDqnStepAllocatesNothing) {
  expect_steady_state_allocates_nothing(false);
}

}  // namespace
}  // namespace dimmer::rl
