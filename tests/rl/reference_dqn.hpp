// Frozen per-sample DQN training step, kept as the differential oracle for
// the batch-major train step (DESIGN.md §17). This is the original
// DqnAgent::train_step: for each of the batch's samples in turn, a target
// forward, an online forward (Double DQN), a caching forward and a backward
// pass, each on heap vectors, accumulating into the gradient before one
// Adam step. It must never be "optimised" — its only job is to stay
// bit-for-bit equivalent to the shipped agent so test_dqn_differential.cpp
// can prove the batched step identical.
#pragma once

#include <cstdint>
#include <vector>

#include "rl/dqn.hpp"
#include "util/rng.hpp"

namespace dimmer::rl::reference {

/// The learning core of DqnAgent (replay, online and target networks, Adam,
/// the train step) with the pre-batching per-sample arithmetic. Same
/// constructor, observe() contract and RNG consumption as DqnAgent.
class Dqn {
 public:
  Dqn(DqnConfig cfg, std::uint64_t seed);

  void observe(Transition t, util::Pcg32& rng);

  const Mlp& online_network() const { return online_; }
  const Mlp& target_network() const { return target_; }
  double recent_loss() const { return recent_loss_; }
  std::size_t train_steps() const { return train_steps_; }

 private:
  void train_step(util::Pcg32& rng);

  DqnConfig cfg_;
  Mlp online_;
  Mlp target_;
  Adam adam_;
  ReplayBuffer replay_;
  std::vector<LayerGrads> grads_;
  std::size_t train_steps_ = 0;
  double recent_loss_ = 0.0;
};

}  // namespace dimmer::rl::reference
