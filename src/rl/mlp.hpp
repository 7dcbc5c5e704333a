// A minimal fully-connected network with ReLU hidden activations.
//
// This is deliberately a from-scratch implementation: the paper's DQN is a
// single 30-neuron hidden layer ("we implement our own neuronal
// compute-system rather than use an existing framework"), so a dependency-
// free forward/backward pass keeps the training loop transparent and portable.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "util/rng.hpp"

namespace dimmer::rl {

/// One dense layer: y = act(W x + b). Weights are row-major [out][in].
struct DenseLayer {
  int in = 0;
  int out = 0;
  bool relu = false;  ///< ReLU if true, identity otherwise (output layer)
  std::vector<double> w;  // out*in
  std::vector<double> b;  // out
};

/// Gradients and Adam moments share the layer's parameter layout.
struct LayerGrads {
  std::vector<double> dw;
  std::vector<double> db;
};

class Mlp;

/// A batch of samples laid out [feature][sample] for Mlp::forward_batch and
/// Mlp::backward_batch: feature f of sample s is element s of row f, and a
/// row holds the batch rounded up to the kernel's lane count. The lanes
/// past the batch are padding: they hold finite values and nothing reads
/// them back. The batch keeps every layer's activations for the backward pass
/// and owns that pass's scratch, all sized at construction, so passes over
/// it never allocate.
class MlpBatch {
 public:
  /// Buffers for `net`'s shape over `batch` >= 1 samples, zero-filled.
  MlpBatch(const Mlp& net, std::size_t batch);

  /// Writes sample s's network input (input_size() features).
  void set_input(std::size_t s, const std::vector<double>& x);
  /// Row f of the network output, valid after Mlp::forward_batch.
  const double* output(int f) const {
    return &act_[out_offset_ + static_cast<std::size_t>(f) * stride_];
  }
  /// Row f of dLoss/dOutput, which the caller fills for Mlp::backward_batch.
  /// Starts zeroed; backward_batch only reads it.
  double* output_grad(int f) {
    return &dout_[static_cast<std::size_t>(f) * stride_];
  }

 private:
  friend class Mlp;

  std::vector<int> widths_;  ///< input width, then each layer's output width
  std::size_t batch_;
  std::size_t stride_;
  std::size_t out_offset_ = 0;
  std::vector<double> act_;   ///< every layer's input rows, then the output
  std::vector<double> dout_;  ///< [out][stride]
  // Backward scratch, out_pad = a layer's outputs rounded up to the SIMD
  // width.
  std::vector<double> delta_;    ///< two [max width][stride] buffers
  std::vector<double> delta_t_;  ///< delta sample-major, [batch][out_pad]
  std::vector<double> grad_t_;   ///< [in][out_pad] dW transposed, then dB
  std::vector<double> ones_;     ///< the bias's input: batch x 1.0
};

class Mlp {
 public:
  /// `sizes` = {in, hidden..., out}; hidden layers get ReLU, the output layer
  /// is linear (Q-values). He-initialised from `seed`.
  Mlp(const std::vector<int>& sizes, std::uint64_t seed);

  int input_size() const;
  int output_size() const;
  std::size_t parameter_count() const;
  const std::vector<DenseLayer>& layers() const { return layers_; }
  std::vector<DenseLayer>& mutable_layers() { return layers_; }

  /// Plain inference: the forward_batch kernel over a batch of one.
  std::vector<double> forward(const std::vector<double>& x) const;

  /// Runs every sample of `io` through the network, keeping each layer's
  /// activations in `io`. A sample's outputs have the same bits as
  /// forward() on it, whatever the batch.
  void forward_batch(MlpBatch& io) const;

  /// Backpropagates io's output_grad rows through the activations of the
  /// last forward_batch(io) and writes the gradient summed over the batch
  /// into `grads` (overwriting it): each parameter's sum starts at zero and
  /// adds the samples in order.
  void backward_batch(MlpBatch& io, std::vector<LayerGrads>& grads) const;

  /// Gradient buffers matching this network's shape, zero-initialised.
  std::vector<LayerGrads> make_grads() const;

  /// Copy all parameters from another identically-shaped network.
  void copy_parameters_from(const Mlp& other);

  /// Text (de)serialisation of the architecture + weights.
  void save(std::ostream& os) const;
  static Mlp load(std::istream& is);

 private:
  explicit Mlp() = default;
  std::vector<DenseLayer> layers_;
};

/// Adam optimiser over an Mlp's parameters.
class Adam {
 public:
  struct Config {
    double lr = 1e-3;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double eps = 1e-8;
  };

  Adam(const Mlp& net, Config cfg);

  /// Applies one update from accumulated gradients (scaled by 1/batch).
  void step(Mlp& net, const std::vector<LayerGrads>& grads, double batch_scale);

  void set_learning_rate(double lr) { cfg_.lr = lr; }
  double learning_rate() const { return cfg_.lr; }

 private:
  Config cfg_;
  std::vector<LayerGrads> m_;
  std::vector<LayerGrads> v_;
  long t_ = 0;
};

}  // namespace dimmer::rl
