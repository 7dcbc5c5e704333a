#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "rl/mlp.hpp"

namespace dimmer::rl {
namespace {

TEST(Mlp, ShapesAndSizes) {
  Mlp net({31, 30, 3}, 1);
  EXPECT_EQ(net.input_size(), 31);
  EXPECT_EQ(net.output_size(), 3);
  EXPECT_EQ(net.parameter_count(), 31u * 30 + 30 + 30 * 3 + 3);
  EXPECT_EQ(net.layers().size(), 2u);
  EXPECT_TRUE(net.layers()[0].relu);
  EXPECT_FALSE(net.layers()[1].relu);
}

TEST(Mlp, RejectsBadArchitecture) {
  EXPECT_THROW(Mlp({5}, 1), util::RequireError);
  EXPECT_THROW(Mlp({5, 0, 3}, 1), util::RequireError);
}

TEST(Mlp, ForwardRejectsWrongInputSize) {
  Mlp net({4, 3, 2}, 1);
  EXPECT_THROW(net.forward({1.0, 2.0}), util::RequireError);
}

TEST(Mlp, DeterministicInitialization) {
  Mlp a({8, 6, 2}, 7), b({8, 6, 2}, 7);
  std::vector<double> x = {1, -1, 0.5, 0, 0.2, -0.7, 0.9, 0.1};
  EXPECT_EQ(a.forward(x), b.forward(x));
  Mlp c({8, 6, 2}, 8);
  EXPECT_NE(a.forward(x), c.forward(x));
}

TEST(Mlp, ReluIsAppliedToHiddenLayer) {
  Mlp net({1, 1, 1}, 1);
  auto& layers = net.mutable_layers();
  layers[0].w = {1.0};
  layers[0].b = {0.0};
  layers[1].w = {1.0};
  layers[1].b = {0.0};
  EXPECT_DOUBLE_EQ(net.forward({2.0})[0], 2.0);
  EXPECT_DOUBLE_EQ(net.forward({-2.0})[0], 0.0);  // clipped by ReLU
}

TEST(Mlp, ForwardBatchMatchesForwardBitForBit) {
  // Every batch size, including ones that leave padding lanes: a sample's
  // outputs must not depend on its lane or on its neighbours.
  Mlp net({31, 30, 3}, 4);
  util::Pcg32 rng(5);
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{32},
                        std::size_t{33}}) {
    std::vector<std::vector<double>> xs(n, std::vector<double>(31));
    MlpBatch io(net, n);
    for (std::size_t s = 0; s < n; ++s) {
      for (double& v : xs[s]) v = rng.uniform(-2.0, 2.0);
      io.set_input(s, xs[s]);
    }
    net.forward_batch(io);
    for (std::size_t s = 0; s < n; ++s) {
      const std::vector<double> y = net.forward(xs[s]);
      for (int f = 0; f < 3; ++f)
        EXPECT_EQ(io.output(f)[s], y[static_cast<std::size_t>(f)])
            << "batch " << n << " sample " << s << " output " << f;
    }
  }
}

TEST(Mlp, BatchRejectsMismatchedShapes) {
  Mlp net({4, 3, 2}, 1), other({4, 5, 2}, 1);
  MlpBatch io(net, 2);
  EXPECT_THROW(io.set_input(0, {1.0, 2.0}), util::RequireError);
  EXPECT_THROW(io.set_input(2, {1.0, 2.0, 3.0, 4.0}), util::RequireError);
  EXPECT_THROW(other.forward_batch(io), util::RequireError);
  EXPECT_THROW(MlpBatch(net, 0), util::RequireError);
}

TEST(Mlp, BackwardMatchesNumericalGradient) {
  Mlp net({3, 4, 2}, 3);
  const std::vector<std::vector<double>> xs = {
      {0.5, -0.3, 0.8}, {-0.1, 0.9, 0.2}, {0.7, 0.4, -0.6}};
  // Loss = sum over the batch of both outputs (dLoss/dOut = ones).
  auto loss = [&](const Mlp& m) {
    double sum = 0.0;
    for (const auto& x : xs) {
      auto y = m.forward(x);
      sum += y[0] + y[1];
    }
    return sum;
  };
  MlpBatch io(net, xs.size());
  for (std::size_t s = 0; s < xs.size(); ++s) {
    io.set_input(s, xs[s]);
    io.output_grad(0)[s] = 1.0;
    io.output_grad(1)[s] = 1.0;
  }
  net.forward_batch(io);
  auto grads = net.make_grads();
  net.backward_batch(io, grads);

  const double eps = 1e-6;
  Mlp probe = net;
  for (std::size_t li = 0; li < net.layers().size(); ++li) {
    for (std::size_t wi = 0; wi < net.layers()[li].w.size(); wi += 3) {
      probe.copy_parameters_from(net);
      probe.mutable_layers()[li].w[wi] += eps;
      double up = loss(probe);
      probe.mutable_layers()[li].w[wi] -= 2 * eps;
      double dn = loss(probe);
      double numeric = (up - dn) / (2 * eps);
      EXPECT_NEAR(grads[li].dw[wi], numeric, 1e-5)
          << "layer " << li << " weight " << wi;
    }
    for (std::size_t bi = 0; bi < net.layers()[li].b.size(); ++bi) {
      probe.copy_parameters_from(net);
      probe.mutable_layers()[li].b[bi] += eps;
      double up = loss(probe);
      probe.mutable_layers()[li].b[bi] -= 2 * eps;
      double dn = loss(probe);
      EXPECT_NEAR(grads[li].db[bi], (up - dn) / (2 * eps), 1e-5);
    }
  }

  // backward_batch overwrites: a second call leaves the same gradient.
  auto again = grads;
  net.backward_batch(io, again);
  for (std::size_t li = 0; li < grads.size(); ++li) {
    EXPECT_EQ(again[li].dw, grads[li].dw);
    EXPECT_EQ(again[li].db, grads[li].db);
  }
}

TEST(Mlp, AdamFitsSimpleRegression) {
  // Learn y = 2x - 1 on [-1, 1].
  Mlp net({1, 16, 1}, 5);
  Adam adam(net, Adam::Config{0.01, 0.9, 0.999, 1e-8});
  util::Pcg32 rng(6);
  auto grads = net.make_grads();
  MlpBatch io(net, 8);
  std::vector<double> targets(8);
  for (int step = 0; step < 2000; ++step) {
    for (std::size_t b = 0; b < 8; ++b) {
      double x = rng.uniform(-1.0, 1.0);
      targets[b] = 2.0 * x - 1.0;
      io.set_input(b, {x});
    }
    net.forward_batch(io);
    for (std::size_t b = 0; b < 8; ++b)
      io.output_grad(0)[b] = 2.0 * (io.output(0)[b] - targets[b]);
    net.backward_batch(io, grads);
    adam.step(net, grads, 1.0 / 8.0);
  }
  double mse = 0.0;
  for (double x = -1.0; x <= 1.0; x += 0.1) {
    double err = net.forward({x})[0] - (2.0 * x - 1.0);
    mse += err * err;
  }
  EXPECT_LT(mse / 21.0, 1e-3);
}

TEST(Mlp, SaveLoadRoundTripPreservesOutputs) {
  Mlp net({5, 7, 3}, 9);
  std::stringstream ss;
  net.save(ss);
  Mlp loaded = Mlp::load(ss);
  std::vector<double> x = {0.1, -0.2, 0.3, -0.4, 0.5};
  auto a = net.forward(x);
  auto b = loaded.forward(x);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(Mlp, LoadRejectsGarbage) {
  std::stringstream ss("not-a-net 1\n");
  EXPECT_THROW(Mlp::load(ss), util::RequireError);
}

TEST(Mlp, LoadRejectsTruncatedStream) {
  Mlp net({5, 7, 3}, 9);
  std::stringstream full;
  net.save(full);
  std::string text = full.str();
  // Cut at several depths: mid-header, mid-layer-header, mid-weights.
  for (std::size_t cut : {std::size_t{4}, text.size() / 4, text.size() / 2,
                          text.size() - 3}) {
    std::stringstream ss(text.substr(0, cut));
    EXPECT_THROW(Mlp::load(ss), util::RequireError) << "cut at " << cut;
  }
}

TEST(Mlp, LoadRejectsBadLayerHeader) {
  // in = 0 is not a layer.
  std::stringstream zero("dimmer-mlp 1\n1\n0 3 1\n");
  EXPECT_THROW(Mlp::load(zero), util::RequireError);
  // Absurd width (a corrupt count would otherwise allocate gigabytes).
  std::stringstream huge("dimmer-mlp 1\n1\n2 999999999 0\n");
  EXPECT_THROW(Mlp::load(huge), util::RequireError);
  // relu flag must be 0 or 1.
  std::stringstream relu("dimmer-mlp 1\n1\n2 1 7\n1 1\n0\n");
  EXPECT_THROW(Mlp::load(relu), util::RequireError);
}

TEST(Mlp, LoadRejectsMismatchedLayerChain) {
  // Layer 0 outputs 3 but layer 1 claims 4 inputs: a spliced/corrupt file.
  std::stringstream ss(
      "dimmer-mlp 1\n2\n"
      "2 3 1\n1 1 1 1 1 1\n0 0 0\n"
      "4 1 0\n1 1 1 1\n0\n");
  EXPECT_THROW(Mlp::load(ss), util::RequireError);
}

TEST(Mlp, LoadRejectsNonFiniteWeights) {
  // Whether the platform's stream parser accepts "nan"/"1e999" (yielding a
  // non-finite double) or chokes on it (failbit), the load must throw —
  // never hand back a net that outputs NaN.
  for (const char* bad : {"nan", "inf", "1e999"}) {
    std::stringstream ss(std::string("dimmer-mlp 1\n1\n2 1 0\n") + bad +
                         " 0.5\n0.25\n");
    EXPECT_THROW(Mlp::load(ss), util::RequireError) << bad;
  }
}

TEST(Mlp, FailedLoadDoesNotDisturbStreamlessState) {
  // load is a static factory: a throw must not leak a half-built net.
  // (Exercise it repeatedly to let ASan catch any leak/UB on the path.)
  for (int i = 0; i < 8; ++i) {
    std::stringstream ss("dimmer-mlp 1\n1\n2 1 0\n0.5\n");  // truncated
    EXPECT_THROW(Mlp::load(ss), util::RequireError);
  }
}

TEST(Mlp, CopyParametersRequiresSameShape) {
  Mlp a({4, 3, 2}, 1), b({4, 5, 2}, 1);
  EXPECT_THROW(a.copy_parameters_from(b), util::RequireError);
}

TEST(Adam, LearningRateIsAdjustable) {
  Mlp net({2, 2}, 1);
  Adam adam(net, Adam::Config{1e-3, 0.9, 0.999, 1e-8});
  adam.set_learning_rate(5e-4);
  EXPECT_DOUBLE_EQ(adam.learning_rate(), 5e-4);
}

}  // namespace
}  // namespace dimmer::rl
