#include "rl/dqn.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.hpp"

namespace dimmer::rl {

DqnAgent::DqnAgent(DqnConfig cfg, std::uint64_t seed)
    : cfg_(cfg),
      online_(cfg.architecture, seed),
      target_(cfg.architecture, seed),
      adam_(online_, Adam::Config{cfg.lr, 0.9, 0.999, 1e-8}),
      replay_(cfg.replay_capacity),
      grads_(online_.make_grads()),
      states_(online_, cfg.batch_size),
      next_states_(online_, cfg.batch_size),
      sample_(cfg.batch_size),
      a_star_(cfg.batch_size),
      one_(online_, 1) {
  DIMMER_REQUIRE(cfg_.gamma >= 0.0 && cfg_.gamma < 1.0, "gamma out of [0,1)");
  DIMMER_REQUIRE(cfg_.batch_size > 0, "batch size must be positive");
  DIMMER_REQUIRE(cfg_.min_replay_before_training >= cfg_.batch_size,
                 "min_replay_before_training must be >= batch_size (training "
                 "on a smaller buffer just resamples the same transitions)");
  DIMMER_REQUIRE(cfg_.epsilon_anneal_steps > 0, "anneal steps must be > 0");
  target_.copy_parameters_from(online_);
}

double DqnAgent::epsilon() const {
  if (env_steps_ >= cfg_.epsilon_anneal_steps) return cfg_.epsilon_end;
  double frac = static_cast<double>(env_steps_) /
                static_cast<double>(cfg_.epsilon_anneal_steps);
  return cfg_.epsilon_start +
         frac * (cfg_.epsilon_end - cfg_.epsilon_start);
}

namespace {
/// Index of sample s's first largest output: std::max_element's pick.
int argmax(const MlpBatch& io, int outputs, std::size_t s) {
  int best = 0;
  for (int f = 1; f < outputs; ++f)
    if (io.output(best)[s] < io.output(f)[s]) best = f;
  return best;
}
}  // namespace

int DqnAgent::select_action(const std::vector<double>& state,
                            util::Pcg32& rng) {
  if (rng.uniform() < epsilon())
    return static_cast<int>(
        rng.uniform_below(static_cast<std::uint32_t>(online_.output_size())));
  one_.set_input(0, state);
  online_.forward_batch(one_);
  return argmax(one_, online_.output_size(), 0);
}

int DqnAgent::greedy_action(const std::vector<double>& state) const {
  std::vector<double> q = online_.forward(state);
  return static_cast<int>(
      std::max_element(q.begin(), q.end()) - q.begin());
}

std::vector<double> DqnAgent::q_values(const std::vector<double>& state) const {
  return online_.forward(state);
}

void DqnAgent::observe(Transition t, util::Pcg32& rng) {
  DIMMER_REQUIRE(t.action >= 0 && t.action < online_.output_size(),
                 "action out of range");
  // Capture trace fields before the transition is moved into the buffer.
  const int action = t.action;
  const double reward = t.reward;
  const bool done = t.done;
  replay_.push(std::move(t));
  ++env_steps_;
  const std::size_t trained_before = train_steps_;
  if (replay_.size() >= cfg_.min_replay_before_training) train_step(rng);

  if (instr_.metrics) {
    obs::MetricsRegistry& m = *instr_.metrics;
    m.counter("dqn.observations") += 1;
    m.counter("dqn.train_steps") += train_steps_ - trained_before;
    m.gauge("dqn.epsilon") = epsilon();
    m.gauge("dqn.recent_loss") = recent_loss_;
  }
  if (instr_.trace) {
    obs::TraceEvent e;
    e.kind = "dqn_step";
    e.round = env_steps_ - 1;
    e.f("action", action)
        .f("reward", reward)
        .f("done", done ? 1.0 : 0.0)
        .f("epsilon", epsilon())
        .f("recent_loss", recent_loss_)
        .f("replay_size", static_cast<double>(replay_.size()))
        .f("train_steps", static_cast<double>(train_steps_));
    instr_.trace->emit(e);
  }
}

void DqnAgent::train_step(util::Pcg32& rng) {
  if (cfg_.lr_decay_steps > 0) {
    double frac = std::min(1.0, static_cast<double>(train_steps_) /
                                    static_cast<double>(cfg_.lr_decay_steps));
    adam_.set_learning_rate(cfg_.lr + frac * (cfg_.lr_final - cfg_.lr));
  }
  replay_.sample_indices(cfg_.batch_size, rng, sample_);
  const std::size_t n = sample_.size();
  for (std::size_t s = 0; s < n; ++s) {
    const Transition& tr = replay_.at(sample_[s]);
    states_.set_input(s, tr.state);
    // A terminal transition's next state is never read (it may be empty):
    // its lane keeps the values it held.
    if (!tr.done) next_states_.set_input(s, tr.next_state);
  }
  // The weights stay fixed until Adam runs, so each pass covers the whole
  // batch at once.
  const int outputs = online_.output_size();
  if (cfg_.double_dqn) {
    online_.forward_batch(next_states_);
    for (std::size_t s = 0; s < n; ++s)
      a_star_[s] = argmax(next_states_, outputs, s);
  }
  target_.forward_batch(next_states_);
  online_.forward_batch(states_);

  double loss_acc = 0.0;
  for (std::size_t s = 0; s < n; ++s) {
    const Transition& tr = replay_.at(sample_[s]);
    // TD target: r + gamma * Q_target(s', a*) with a* = argmax Q_online
    // (Double DQN) or argmax Q_target (vanilla); 0 bootstrap if done.
    double target_v = tr.reward;
    if (!tr.done) {
      double disc = tr.discount > 0.0 ? tr.discount : cfg_.gamma;
      const int a_star =
          cfg_.double_dqn ? a_star_[s] : argmax(next_states_, outputs, s);
      target_v += disc * next_states_.output(a_star)[s];
    }
    double td = states_.output(tr.action)[s] - target_v;

    // Huber loss gradient on the chosen action only.
    double d = cfg_.huber_delta;
    double g = std::abs(td) <= d ? td : (td > 0 ? d : -d);
    loss_acc += std::abs(td) <= d ? 0.5 * td * td
                                  : d * (std::abs(td) - 0.5 * d);

    for (int f = 0; f < outputs; ++f) states_.output_grad(f)[s] = 0.0;
    states_.output_grad(tr.action)[s] = g;
  }
  online_.backward_batch(states_, grads_);
  adam_.step(online_, grads_, 1.0 / static_cast<double>(cfg_.batch_size));
  ++train_steps_;
  recent_loss_ = 0.99 * recent_loss_ +
                 0.01 * (loss_acc / static_cast<double>(cfg_.batch_size));
  if (train_steps_ % cfg_.target_sync_period == 0)
    target_.copy_parameters_from(online_);
}

}  // namespace dimmer::rl
