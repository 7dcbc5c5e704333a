// Differential suite for the batch-major train step: DqnAgent and the
// frozen per-sample reference (reference_dqn.cpp) are fed the same
// transitions and RNG streams, and their online weights, target weights
// and recent_loss() must stay bit-for-bit equal.
#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "reference_dqn.hpp"
#include "rl/dqn.hpp"
#include "util/rng.hpp"

namespace dimmer::rl {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

::testing::AssertionResult same_parameters(const Mlp& a, const Mlp& b) {
  if (a.layers().size() != b.layers().size())
    return ::testing::AssertionFailure() << "layer counts differ";
  for (std::size_t l = 0; l < a.layers().size(); ++l) {
    if (!same_bits(a.layers()[l].w, b.layers()[l].w))
      return ::testing::AssertionFailure() << "layer " << l << " weights differ";
    if (!same_bits(a.layers()[l].b, b.layers()[l].b))
      return ::testing::AssertionFailure() << "layer " << l << " biases differ";
  }
  return ::testing::AssertionSuccess();
}

struct Case {
  std::string name;
  DqnConfig cfg;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

DqnConfig base_config() {
  DqnConfig cfg;  // the paper's 31 -> 30 -> 3 net
  cfg.replay_capacity = 700;  // the ring wraps during the run
  cfg.min_replay_before_training = 200;
  cfg.target_sync_period = 150;
  cfg.epsilon_anneal_steps = 1000;
  cfg.lr_decay_steps = 1500;
  return cfg;
}

std::vector<Case> cases() {
  std::vector<Case> out;
  out.push_back({"DoubleDqnBatch32", base_config()});
  DqnConfig vanilla = base_config();
  vanilla.double_dqn = false;
  out.push_back({"VanillaDqnBatch32", vanilla});
  DqnConfig tail = base_config();
  tail.batch_size = 7;  // leaves padding lanes on every SIMD width
  out.push_back({"DoubleDqnBatch7", tail});
  DqnConfig tail_vanilla = tail;
  tail_vanilla.double_dqn = false;
  tail_vanilla.lr_decay_steps = 0;
  out.push_back({"VanillaDqnBatch7NoLrDecay", tail_vanilla});
  DqnConfig deep = base_config();
  // Two ReLU layers and widths that leave 4-wide and scalar remainders.
  // Every width is at least 8: on the avx512 build the reference's loops
  // over fewer inputs take a fused or an unfused path depending on GCC's
  // run-time alias check of heap addresses, so their bits are not fixed.
  deep.architecture = {12, 9, 10, 2};
  deep.batch_size = 13;
  out.push_back({"DeepNetBatch13", deep});
  return out;
}

class DqnDifferential : public ::testing::TestWithParam<Case> {};

TEST_P(DqnDifferential, BatchedTrainStepMatchesPerSampleReference) {
  const DqnConfig& cfg = GetParam().cfg;
  const auto in = static_cast<std::size_t>(cfg.architecture.front());
  const int actions = cfg.architecture.back();
  DqnAgent agent(cfg, 17);
  reference::Dqn ref(cfg, 17);
  ASSERT_TRUE(same_parameters(agent.online_network(), ref.online_network()));

  util::Pcg32 gen(99);  // draws the transitions
  util::Pcg32 rng_agent(5), rng_ref(5);
  constexpr int kObservations = 2300;
  for (int t = 0; t < kObservations; ++t) {
    Transition tr;
    tr.state.resize(in);
    for (double& v : tr.state) v = gen.uniform(-1.5, 1.5);
    tr.action = static_cast<int>(
        gen.uniform_below(static_cast<std::uint32_t>(actions)));
    tr.reward = gen.uniform(-0.5, 1.0);
    tr.done = gen.bernoulli(0.15);
    // Terminal transitions sometimes carry no next state at all.
    if (!tr.done || gen.bernoulli(0.5)) {
      tr.next_state.resize(in);
      for (double& v : tr.next_state) v = gen.uniform(-1.5, 1.5);
    }
    // n-step returns carry their own bootstrap factor; -1 means gamma.
    const double u = gen.uniform();
    tr.discount = u < 0.4 ? -1.0 : (u < 0.7 ? 0.49 : 0.343);
    Transition copy = tr;
    agent.observe(std::move(tr), rng_agent);
    ref.observe(std::move(copy), rng_ref);
    if ((t + 1) % 500 == 0 || t + 1 == kObservations) {
      ASSERT_TRUE(same_parameters(agent.online_network(), ref.online_network()))
          << "online net after " << t + 1 << " observations";
      ASSERT_TRUE(same_parameters(agent.target_network(), ref.target_network()))
          << "target net after " << t + 1 << " observations";
      ASSERT_TRUE(same_bits(agent.recent_loss(), ref.recent_loss()))
          << agent.recent_loss() << " vs " << ref.recent_loss();
    }
  }
  EXPECT_EQ(agent.train_steps(), ref.train_steps());
  EXPECT_GE(agent.train_steps(), 2000u);
  // The run syncs the target several times and trains past the lr decay.
  EXPECT_GT(agent.train_steps(), 10 * cfg.target_sync_period);
  EXPECT_GT(agent.train_steps(), cfg.lr_decay_steps);
  EXPECT_GT(agent.recent_loss(), 0.0);
  // And the streams stayed in lockstep.
  EXPECT_EQ(rng_agent.next_u32(), rng_ref.next_u32());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DqnDifferential, ::testing::ValuesIn(cases()),
    [](const ::testing::TestParamInfo<Case>& info) { return info.param.name; });

}  // namespace
}  // namespace dimmer::rl
