#include "rl/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "util/check.hpp"
#include "util/simd/simd.hpp"

namespace dimmer::rl {

Mlp::Mlp(const std::vector<int>& sizes, std::uint64_t seed) {
  DIMMER_REQUIRE(sizes.size() >= 2, "Mlp needs at least in+out sizes");
  for (int s : sizes) DIMMER_REQUIRE(s > 0, "layer sizes must be positive");
  util::Pcg32 rng(seed);
  layers_.reserve(sizes.size() - 1);
  for (std::size_t l = 0; l + 1 < sizes.size(); ++l) {
    DenseLayer layer;
    layer.in = sizes[l];
    layer.out = sizes[l + 1];
    layer.relu = (l + 2 < sizes.size());  // all but the last use ReLU
    layer.w.resize(static_cast<std::size_t>(layer.in) * layer.out);
    layer.b.assign(static_cast<std::size_t>(layer.out), 0.0);
    double scale = std::sqrt(2.0 / layer.in);  // He initialisation
    for (double& w : layer.w) w = rng.normal(0.0, scale);
    layers_.push_back(std::move(layer));
  }
}

int Mlp::input_size() const { return layers_.front().in; }
int Mlp::output_size() const { return layers_.back().out; }

std::size_t Mlp::parameter_count() const {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l.w.size() + l.b.size();
  return n;
}

namespace {

/// The kernel's lane pack: the build's vector type, and two lanes on the
/// scalar build (util/simd/pair.hpp), where GCC left to itself vectorises
/// the width-1 loops across the wrong dimension.
using vdouble =
    util::simd::simd<double, std::max(util::simd::native_width, 2)>;
constexpr std::size_t kW = vdouble::width;

std::size_t round_up(std::size_t n, std::size_t to) {
  return (n + to - 1) / to * to;
}

/// Register block of the layer kernel: kRows output rows by kCols vectors
/// of lanes, i.e. kRows * kCols independent chains in flight. avx512 has 32
/// vector registers to the others' 16, so it takes one more row.
constexpr std::size_t kRows = kW == 8 ? 3 : 2;
constexpr std::size_t kCols = 4;

/// Operands of the layer kernel: a(r, k) = a[r * ar + k * ak], lane
/// operand row k at b + k * ldb, output row r at out + r * ldo.
struct Operands {
  const double* a;
  std::size_t ar, ak;
  const double* init;  ///< one start value per output row; null = 0.0
  const double* b;
  std::size_t ldb;
  double* out;
  std::size_t ldo;
  bool relu;
  std::size_t depth;       ///< number of terms k
  std::size_t fused_from;  ///< terms k < fused_from round the product first
};

template <std::size_t R, std::size_t C>
void tile(const Operands& op, std::size_t r0, std::size_t j0) {
  vdouble acc[R][C];
  for (std::size_t r = 0; r < R; ++r) {
    const vdouble start =
        vdouble::broadcast(op.init ? op.init[r0 + r] : 0.0);
    for (std::size_t c = 0; c < C; ++c) acc[r][c] = start;
  }
  const double* a = op.a + r0 * op.ar;
  const double* b = op.b + j0;
  for (std::size_t k = 0; k < op.depth; ++k, a += op.ak, b += op.ldb) {
    vdouble bk[C];
    for (std::size_t c = 0; c < C; ++c) bk[c] = vdouble::load(b + c * kW);
    vdouble ak[R];
    for (std::size_t r = 0; r < R; ++r) ak[r] = vdouble::broadcast(a[r * op.ar]);
    if (k < op.fused_from) {
      for (std::size_t r = 0; r < R; ++r)
        for (std::size_t c = 0; c < C; ++c)
          acc[r][c] = mul_then_add(ak[r], bk[c], acc[r][c]);
    } else {
      for (std::size_t r = 0; r < R; ++r)
        for (std::size_t c = 0; c < C; ++c)
          acc[r][c] = mul_add(ak[r], bk[c], acc[r][c]);
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    double* out = op.out + (r0 + r) * op.ldo + j0;
    for (std::size_t c = 0; c < C; ++c) {
      vdouble v = acc[r][c];
      // std::max semantics, (v < 0) ? 0 : v: -0.0 and NaN pass through.
      if (op.relu) v = max(v, vdouble::broadcast(0.0));
      v.store(out + c * kW);
    }
  }
}

template <std::size_t R>
void row_block(const Operands& op, std::size_t r0, std::size_t cols) {
  std::size_t j = 0;
  for (; j + kCols * kW <= cols; j += kCols * kW) tile<R, kCols>(op, r0, j);
  for (; j < cols; j += kW) tile<R, 1>(op, r0, j);
}

/// The one kernel behind every layer pass. For rows r in [r0, r1) and lanes
/// j < cols (a multiple of the SIMD width):
///   out[r][j] = act(init[r] + a(r, 0) b[0][j] + ... + a(r, depth-1) b[depth-1][j])
/// Each output is one chain, the start value first and then k ascending:
/// the order the scalar dot product adds in, so a lane's bits depend on
/// neither its neighbours nor the blocking.
///  - forward: r = output, k = input, lanes = samples (a = W, init = bias)
///  - dW:      r = input, k = sample, lanes = outputs (b = dLoss/dOutput)
///  - dInput:  r = input, k = output, lanes = samples (a = W transposed)
void layer_kernel(const Operands& op, std::size_t r0, std::size_t r1,
                  std::size_t cols) {
  std::size_t r = r0;
  for (; r + kRows <= r1; r += kRows) row_block<kRows>(op, r, cols);
  for (; r < r1; ++r) row_block<1>(op, r, cols);
}

// Which products are fused. Scalar and avx2 builds have no FMA: every term
// rounds its product, and fused_from changes nothing. The avx512 build
// reproduces the per-sample loops this kernel replaced, as GCC 12
// vectorised them with contraction on (DESIGN.md §17):
//  - a forward dot product over n inputs ran as 8- and 4-wide products
//    added in order, then a scalar tail of fused terms: the first n / 4 * 4
//    terms round the product;
//  - the backward loops over an input i were 8-wide fused, then one 4-wide
//    epilogue of rounded products when n % 8 >= 4, then a fused scalar
//    tail: rows i in [n / 8 * 8, + 4) round the product.
std::size_t forward_fused_from(std::size_t in) { return in / 4 * 4; }

/// Runs the backward kernel `op` over input rows [0, in) with each row's
/// products fused or rounded as the per-sample loop over i had them.
void backward_rows(Operands op, std::size_t in, std::size_t cols) {
  const std::size_t body = in / 8 * 8;
  const std::size_t rounded_end = in - body >= 4 ? body + 4 : body;
  op.fused_from = 0;
  layer_kernel(op, 0, body, cols);
  op.fused_from = op.depth;
  layer_kernel(op, body, rounded_end, cols);
  op.fused_from = 0;
  layer_kernel(op, rounded_end, in, cols);
}

/// Forward pass over activation rows stored back to back from `act`: the
/// network input, then each layer's output, every row `stride` lanes.
void forward_rows(const std::vector<DenseLayer>& layers, double* act,
                  std::size_t stride) {
  double* x = act;
  for (const DenseLayer& l : layers) {
    const auto in = static_cast<std::size_t>(l.in);
    double* y = x + in * stride;
    layer_kernel({l.w.data(), in, 1, l.b.data(), x, stride, y, stride, l.relu,
                  in, forward_fused_from(in)},
                 0, static_cast<std::size_t>(l.out), stride);
    x = y;
  }
}

std::size_t total_width(const std::vector<DenseLayer>& layers) {
  std::size_t n = static_cast<std::size_t>(layers.front().in);
  for (const DenseLayer& l : layers) n += static_cast<std::size_t>(l.out);
  return n;
}

void require_shape(const std::vector<DenseLayer>& layers,
                   const std::vector<int>& widths) {
  bool same = widths.size() == layers.size() + 1 &&
              widths.front() == layers.front().in;
  for (std::size_t l = 0; same && l < layers.size(); ++l)
    same = widths[l + 1] == layers[l].out;
  DIMMER_REQUIRE(same, "batch was built for another network shape");
}

}  // namespace

MlpBatch::MlpBatch(const Mlp& net, std::size_t batch)
    : batch_(batch), stride_(round_up(batch, kW)) {
  DIMMER_REQUIRE(batch >= 1, "batch must hold at least one sample");
  const auto& layers = net.layers();
  widths_.reserve(layers.size() + 1);
  widths_.push_back(layers.front().in);
  std::size_t max_width = 0, max_in = 0, max_out_pad = 0;
  for (const DenseLayer& l : layers) {
    widths_.push_back(l.out);
    const auto in = static_cast<std::size_t>(l.in);
    const auto out = static_cast<std::size_t>(l.out);
    max_width = std::max({max_width, in, out});
    max_in = std::max(max_in, in);
    max_out_pad = std::max(max_out_pad, round_up(out, kW));
  }
  act_.assign(total_width(layers) * stride_, 0.0);
  out_offset_ =
      act_.size() - static_cast<std::size_t>(widths_.back()) * stride_;
  dout_.assign(static_cast<std::size_t>(widths_.back()) * stride_, 0.0);
  delta_.assign(2 * max_width * stride_, 0.0);
  delta_t_.assign(batch * max_out_pad, 0.0);
  grad_t_.assign((max_in + 1) * max_out_pad, 0.0);
  ones_.assign(batch, 1.0);
}

void MlpBatch::set_input(std::size_t s, const std::vector<double>& x) {
  DIMMER_REQUIRE(x.size() == static_cast<std::size_t>(widths_.front()),
                 "input size mismatch");
  DIMMER_REQUIRE(s < batch_, "sample index out of range");
  for (std::size_t f = 0; f < x.size(); ++f) act_[f * stride_ + s] = x[f];
}

std::vector<double> Mlp::forward(const std::vector<double>& x) const {
  DIMMER_REQUIRE(static_cast<int>(x.size()) == input_size(),
                 "input size mismatch");
  std::vector<double> act(total_width(layers_) * kW, 0.0);
  for (std::size_t f = 0; f < x.size(); ++f) act[f * kW] = x[f];
  forward_rows(layers_, act.data(), kW);
  const auto out = static_cast<std::size_t>(output_size());
  std::vector<double> y(out);
  for (std::size_t f = 0; f < out; ++f)
    y[f] = act[act.size() - (out - f) * kW];
  return y;
}

void Mlp::forward_batch(MlpBatch& io) const {
  require_shape(layers_, io.widths_);
  forward_rows(layers_, io.act_.data(), io.stride_);
}

void Mlp::backward_batch(MlpBatch& io, std::vector<LayerGrads>& grads) const {
  require_shape(layers_, io.widths_);
  DIMMER_REQUIRE(grads.size() == layers_.size(), "grads shape mismatch");
  const std::size_t stride = io.stride_, batch = io.batch_;
  double* delta = io.delta_.data();
  double* dprev = delta + io.delta_.size() / 2;
  std::copy(io.dout_.begin(), io.dout_.end(), delta);
  // Walk the layers from the output: y is layer li's output rows, x its
  // input rows.
  const double* y = io.act_.data() + io.out_offset_;
  for (std::size_t li = layers_.size(); li-- > 0;) {
    const DenseLayer& l = layers_[li];
    const auto in = static_cast<std::size_t>(l.in);
    const auto out = static_cast<std::size_t>(l.out);
    const std::size_t out_pad = round_up(out, kW);
    const double* x = y - in * stride;

    // delta holds dLoss/d(output of layer li); a ReLU passes it only where
    // the pre-activation was positive, i.e. where the output is.
    if (l.relu)
      for (std::size_t j = 0; j < out * stride; ++j)
        if (y[j] <= 0.0) delta[j] = 0.0;

    // dW[o][i] sums delta[o][s] * x[i][s] over the samples in order: rows
    // i, lanes o, so delta goes sample-major. dB is the same sum against
    // a constant input of 1.0 (d * 1.0 + acc rounds exactly as d + acc).
    double* dt = io.delta_t_.data();
    for (std::size_t s = 0; s < batch; ++s)
      for (std::size_t o = 0; o < out; ++o)
        dt[s * out_pad + o] = delta[o * stride + s];
    double* gt = io.grad_t_.data();
    backward_rows({x, stride, 1, nullptr, dt, out_pad, gt, out_pad, false,
                   batch, 0},
                  in, out_pad);
    layer_kernel({io.ones_.data(), 0, 1, nullptr, dt, out_pad,
                  gt + in * out_pad, out_pad, false, batch, 0},
                 0, 1, out_pad);
    LayerGrads& g = grads[li];
    for (std::size_t o = 0; o < out; ++o) {
      for (std::size_t i = 0; i < in; ++i) g.dw[o * in + i] = gt[i * out_pad + o];
      g.db[o] = gt[in * out_pad + o];
    }

    // dLoss/d(input), lanewise; layer 0's would feed nothing.
    if (li == 0) break;
    backward_rows({l.w.data(), 1, in, nullptr, delta, stride, dprev, stride,
                   false, out, 0},
                  in, stride);
    std::swap(delta, dprev);
    y = x;
  }
}

std::vector<LayerGrads> Mlp::make_grads() const {
  std::vector<LayerGrads> g(layers_.size());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    g[i].dw.assign(layers_[i].w.size(), 0.0);
    g[i].db.assign(layers_[i].b.size(), 0.0);
  }
  return g;
}

void Mlp::copy_parameters_from(const Mlp& other) {
  DIMMER_REQUIRE(layers_.size() == other.layers_.size(),
                 "architecture mismatch");
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    DIMMER_REQUIRE(layers_[i].in == other.layers_[i].in &&
                       layers_[i].out == other.layers_[i].out,
                   "architecture mismatch");
    layers_[i].w = other.layers_[i].w;
    layers_[i].b = other.layers_[i].b;
  }
}

void Mlp::save(std::ostream& os) const {
  os << "dimmer-mlp 1\n" << layers_.size() << '\n';
  os.precision(17);
  for (const auto& l : layers_) {
    os << l.in << ' ' << l.out << ' ' << (l.relu ? 1 : 0) << '\n';
    for (double w : l.w) os << w << ' ';
    os << '\n';
    for (double b : l.b) os << b << ' ';
    os << '\n';
  }
}

Mlp Mlp::load(std::istream& is) {
  // Every field is validated before use: a truncated, corrupt or mismatched
  // stream must produce a clear util::RequireError, never a half-built
  // network (callers such as load_or_train_policy catch and retrain).
  std::string magic;
  int version = 0;
  is >> magic >> version;
  DIMMER_REQUIRE(!is.fail() && magic == "dimmer-mlp" && version == 1,
                 "not a dimmer-mlp v1 stream");
  std::size_t n_layers = 0;
  is >> n_layers;
  DIMMER_REQUIRE(!is.fail() && n_layers >= 1 && n_layers < 64,
                 "implausible layer count in mlp stream");
  Mlp net;
  int prev_out = -1;
  for (std::size_t li = 0; li < n_layers; ++li) {
    DenseLayer l;
    int relu = 0;
    is >> l.in >> l.out >> relu;
    DIMMER_REQUIRE(!is.fail() && l.in > 0 && l.out > 0,
                   "corrupt mlp stream: bad layer header");
    DIMMER_REQUIRE(l.in <= 65536 && l.out <= 65536,
                   "implausible layer width in mlp stream");
    DIMMER_REQUIRE(relu == 0 || relu == 1,
                   "corrupt mlp stream: bad activation flag");
    DIMMER_REQUIRE(prev_out < 0 || l.in == prev_out,
                   "corrupt mlp stream: layer shapes do not chain");
    prev_out = l.out;
    l.relu = relu != 0;
    l.w.resize(static_cast<std::size_t>(l.in) * l.out);
    l.b.resize(static_cast<std::size_t>(l.out));
    for (double& w : l.w) is >> w;
    for (double& b : l.b) is >> b;
    DIMMER_REQUIRE(!is.fail(), "corrupt mlp stream: truncated weights");
    for (double w : l.w)
      DIMMER_REQUIRE(std::isfinite(w), "non-finite weight in mlp stream");
    for (double b : l.b)
      DIMMER_REQUIRE(std::isfinite(b), "non-finite bias in mlp stream");
    net.layers_.push_back(std::move(l));
  }
  return net;
}

Adam::Adam(const Mlp& net, Config cfg) : cfg_(cfg) {
  m_ = net.make_grads();
  v_ = net.make_grads();
}

void Adam::step(Mlp& net, const std::vector<LayerGrads>& grads,
                double batch_scale) {
  DIMMER_REQUIRE(grads.size() == m_.size(), "grads shape mismatch");
  ++t_;
  double bc1 = 1.0 - std::pow(cfg_.beta1, t_);
  double bc2 = 1.0 - std::pow(cfg_.beta2, t_);
  auto& layers = net.mutable_layers();
  for (std::size_t li = 0; li < layers.size(); ++li) {
    auto update = [&](std::vector<double>& p, const std::vector<double>& g,
                      std::vector<double>& m, std::vector<double>& v) {
      for (std::size_t i = 0; i < p.size(); ++i) {
        double grad = g[i] * batch_scale;
        m[i] = cfg_.beta1 * m[i] + (1.0 - cfg_.beta1) * grad;
        v[i] = cfg_.beta2 * v[i] + (1.0 - cfg_.beta2) * grad * grad;
        double mhat = m[i] / bc1;
        double vhat = v[i] / bc2;
        p[i] -= cfg_.lr * mhat / (std::sqrt(vhat) + cfg_.eps);
      }
    };
    update(layers[li].w, grads[li].dw, m_[li].dw, v_[li].dw);
    update(layers[li].b, grads[li].db, m_[li].db, v_[li].db);
  }
}

}  // namespace dimmer::rl
