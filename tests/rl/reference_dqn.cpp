#include "reference_dqn.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace dimmer::rl::reference {
namespace {

struct ForwardCache {
  std::vector<std::vector<double>> inputs;   ///< input to each layer
  std::vector<std::vector<double>> pre_act;  ///< W x + b per layer
  std::vector<double> output;
};

void layer_forward(const DenseLayer& l, const std::vector<double>& x,
                   std::vector<double>& pre, std::vector<double>& post) {
  pre.assign(static_cast<std::size_t>(l.out), 0.0);
  for (int o = 0; o < l.out; ++o) {
    double acc = l.b[static_cast<std::size_t>(o)];
    const double* wrow = &l.w[static_cast<std::size_t>(o) * l.in];
    for (int i = 0; i < l.in; ++i) acc += wrow[i] * x[static_cast<std::size_t>(i)];
    pre[static_cast<std::size_t>(o)] = acc;
  }
  post = pre;
  if (l.relu)
    for (double& v : post)
      if (v < 0.0) v = 0.0;
}

std::vector<double> forward(const Mlp& net, const std::vector<double>& x) {
  DIMMER_REQUIRE(static_cast<int>(x.size()) == net.input_size(),
                 "input size mismatch");
  std::vector<double> cur = x, pre, post;
  for (const auto& l : net.layers()) {
    layer_forward(l, cur, pre, post);
    cur = post;
  }
  return cur;
}

std::vector<double> forward_cached(const Mlp& net, const std::vector<double>& x,
                                   ForwardCache& cache) {
  DIMMER_REQUIRE(static_cast<int>(x.size()) == net.input_size(),
                 "input size mismatch");
  cache.inputs.clear();
  cache.pre_act.clear();
  std::vector<double> cur = x, pre, post;
  for (const auto& l : net.layers()) {
    cache.inputs.push_back(cur);
    layer_forward(l, cur, pre, post);
    cache.pre_act.push_back(pre);
    cur = post;
  }
  cache.output = cur;
  return cur;
}

void backward(const Mlp& net, const ForwardCache& cache,
              const std::vector<double>& dout, std::vector<LayerGrads>& grads) {
  const auto& layers = net.layers();
  std::vector<double> delta = dout;
  for (std::size_t li = layers.size(); li-- > 0;) {
    const DenseLayer& l = layers[li];
    LayerGrads& g = grads[li];
    const std::vector<double>& x = cache.inputs[li];
    const std::vector<double>& pre = cache.pre_act[li];

    // delta currently holds dLoss/d(post-activation of layer li).
    if (l.relu)
      for (int o = 0; o < l.out; ++o)
        if (pre[static_cast<std::size_t>(o)] <= 0.0)
          delta[static_cast<std::size_t>(o)] = 0.0;

    std::vector<double> dprev(static_cast<std::size_t>(l.in), 0.0);
    for (int o = 0; o < l.out; ++o) {
      double d = delta[static_cast<std::size_t>(o)];
      g.db[static_cast<std::size_t>(o)] += d;
      double* gw = &g.dw[static_cast<std::size_t>(o) * l.in];
      const double* wrow = &l.w[static_cast<std::size_t>(o) * l.in];
      for (int i = 0; i < l.in; ++i) {
        gw[i] += d * x[static_cast<std::size_t>(i)];
        dprev[static_cast<std::size_t>(i)] += d * wrow[i];
      }
    }
    delta = std::move(dprev);
  }
}

void zero_grads(std::vector<LayerGrads>& grads) {
  for (auto& g : grads) {
    std::fill(g.dw.begin(), g.dw.end(), 0.0);
    std::fill(g.db.begin(), g.db.end(), 0.0);
  }
}

}  // namespace

Dqn::Dqn(DqnConfig cfg, std::uint64_t seed)
    : cfg_(cfg),
      online_(cfg.architecture, seed),
      target_(cfg.architecture, seed),
      adam_(online_, Adam::Config{cfg.lr, 0.9, 0.999, 1e-8}),
      replay_(cfg.replay_capacity),
      grads_(online_.make_grads()) {
  target_.copy_parameters_from(online_);
}

void Dqn::observe(Transition t, util::Pcg32& rng) {
  replay_.push(std::move(t));
  if (replay_.size() >= cfg_.min_replay_before_training) train_step(rng);
}

void Dqn::train_step(util::Pcg32& rng) {
  if (cfg_.lr_decay_steps > 0) {
    double frac = std::min(1.0, static_cast<double>(train_steps_) /
                                    static_cast<double>(cfg_.lr_decay_steps));
    adam_.set_learning_rate(cfg_.lr + frac * (cfg_.lr_final - cfg_.lr));
  }
  zero_grads(grads_);
  std::vector<std::size_t> idx;
  replay_.sample_indices(cfg_.batch_size, rng, idx);
  double loss_acc = 0.0;
  ForwardCache cache;
  for (std::size_t i : idx) {
    const Transition& tr = replay_.at(i);
    // TD target: r + gamma * Q_target(s', a*) with a* = argmax Q_online
    // (Double DQN) or argmax Q_target (vanilla); 0 bootstrap if done.
    double target_v = tr.reward;
    if (!tr.done) {
      double disc = tr.discount > 0.0 ? tr.discount : cfg_.gamma;
      std::vector<double> qn = forward(target_, tr.next_state);
      if (cfg_.double_dqn) {
        std::vector<double> qo = forward(online_, tr.next_state);
        auto a_star = static_cast<std::size_t>(
            std::max_element(qo.begin(), qo.end()) - qo.begin());
        target_v += disc * qn[a_star];
      } else {
        target_v += disc * *std::max_element(qn.begin(), qn.end());
      }
    }
    std::vector<double> q = forward_cached(online_, tr.state, cache);
    double td = q[static_cast<std::size_t>(tr.action)] - target_v;

    // Huber loss gradient on the chosen action only.
    double d = cfg_.huber_delta;
    double g = std::abs(td) <= d ? td : (td > 0 ? d : -d);
    loss_acc += std::abs(td) <= d ? 0.5 * td * td
                                  : d * (std::abs(td) - 0.5 * d);

    std::vector<double> dout(q.size(), 0.0);
    dout[static_cast<std::size_t>(tr.action)] = g;
    backward(online_, cache, dout, grads_);
  }
  adam_.step(online_, grads_, 1.0 / static_cast<double>(cfg_.batch_size));
  ++train_steps_;
  recent_loss_ = 0.99 * recent_loss_ +
                 0.01 * (loss_acc / static_cast<double>(cfg_.batch_size));
  if (train_steps_ % cfg_.target_sync_period == 0)
    target_.copy_parameters_from(online_);
}

}  // namespace dimmer::rl::reference
