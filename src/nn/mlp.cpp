#include "nn/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/state_io.hpp"

namespace glova::nn {

double activate(Activation act, double x) {
  switch (act) {
    case Activation::Identity: return x;
    case Activation::Tanh: return std::tanh(x);
    case Activation::ReLU: return x > 0.0 ? x : 0.0;
    case Activation::Sigmoid: return 1.0 / (1.0 + std::exp(-x));
  }
  return x;
}

double activate_grad_from_output(Activation act, double y) {
  switch (act) {
    case Activation::Identity: return 1.0;
    case Activation::Tanh: return 1.0 - y * y;
    case Activation::ReLU: return y > 0.0 ? 1.0 : 0.0;
    case Activation::Sigmoid: return y * (1.0 - y);
  }
  return 1.0;
}

namespace {

// z = b + Wt^T x with the output index innermost, so the loop vectorizes
// across outputs while each z[o] still sums its terms in input order.
// Outputs go in blocks of kBlock whose partial sums stay in registers for
// the whole input sweep; the narrower tail block (kWidth = 0: width known
// only at run time) keeps them in L1.
constexpr std::size_t kBlock = 32;

template <std::size_t kWidth>
void affine_block(const double* __restrict wt, const double* __restrict b,
                  const double* __restrict x, double* __restrict z, std::size_t in,
                  std::size_t out, std::size_t width) {
  const std::size_t n = kWidth != 0 ? kWidth : width;
  double acc[kBlock];
  for (std::size_t k = 0; k < n; ++k) acc[k] = b[k];
  for (std::size_t i = 0; i < in; ++i) {
    const double xi = x[i];
    const double* __restrict col = wt + i * out;
    for (std::size_t k = 0; k < n; ++k) acc[k] += col[k] * xi;
  }
  for (std::size_t k = 0; k < n; ++k) z[k] = acc[k];
}

void affine(const double* wt, const double* b, const double* x, double* z, std::size_t in,
            std::size_t out) {
  std::size_t o0 = 0;
  for (; o0 + kBlock <= out; o0 += kBlock) {
    affine_block<kBlock>(wt + o0, b + o0, x, z + o0, in, out, kBlock);
  }
  if (o0 < out) affine_block<0>(wt + o0, b + o0, x, z + o0, in, out, out - o0);
}

// wt = the (in x out) transpose of a row-major (out x in) w.  Writing wt
// in order measured faster than reading w in order.
void transpose(const double* __restrict w, double* __restrict wt, std::size_t in,
               std::size_t out) {
  for (std::size_t i = 0; i < in; ++i) {
    for (std::size_t o = 0; o < out; ++o) wt[i * out + o] = w[o * in + i];
  }
}

// dx = W^T delta for a row-major (out x in) W.  Each dx[i] starts from 0.0
// and adds its terms in output order; inputs go in blocks like affine's.
template <std::size_t kWidth>
void transpose_affine_block(const double* __restrict w, const double* __restrict delta,
                            double* __restrict dx, std::size_t in, std::size_t out,
                            std::size_t width) {
  const std::size_t n = kWidth != 0 ? kWidth : width;
  double acc[kBlock] = {};
  for (std::size_t o = 0; o < out; ++o) {
    const double d = delta[o];
    const double* __restrict row = w + o * in;
    for (std::size_t k = 0; k < n; ++k) acc[k] += row[k] * d;
  }
  for (std::size_t k = 0; k < n; ++k) dx[k] = acc[k];
}

void transpose_affine(const double* w, const double* delta, double* dx, std::size_t in,
                      std::size_t out) {
  std::size_t i0 = 0;
  for (; i0 + kBlock <= in; i0 += kBlock) {
    transpose_affine_block<kBlock>(w + i0, delta, dx + i0, in, out, kBlock);
  }
  if (i0 < in) transpose_affine_block<0>(w + i0, delta, dx + i0, in, out, in - i0);
}

void activate_all(Activation act, double* y, std::size_t n) {
  if (act == Activation::Identity) return;
  for (std::size_t o = 0; o < n; ++o) y[o] = activate(act, y[o]);
}

template <Activation kAct>
void scale_by_slope_as(const double* __restrict y, double* __restrict delta, std::size_t n) {
  for (std::size_t o = 0; o < n; ++o) delta[o] *= activate_grad_from_output(kAct, y[o]);
}

// One loop per activation: with the switch outside it, the loop vectorizes.
void scale_by_slope(Activation act, const double* y, double* delta, std::size_t n) {
  switch (act) {
    case Activation::Identity: return;
    case Activation::Tanh: return scale_by_slope_as<Activation::Tanh>(y, delta, n);
    case Activation::ReLU: return scale_by_slope_as<Activation::ReLU>(y, delta, n);
    case Activation::Sigmoid: return scale_by_slope_as<Activation::Sigmoid>(y, delta, n);
  }
}

}  // namespace

Mlp::Mlp(std::vector<std::size_t> sizes, Activation hidden, Activation output, Rng& rng)
    : sizes_(std::move(sizes)) {
  if (sizes_.size() < 2) throw std::invalid_argument("Mlp: need at least input and output layer");
  std::size_t total = 0;
  for (std::size_t l = 0; l + 1 < sizes_.size(); ++l) {
    total += sizes_[l] * sizes_[l + 1] + sizes_[l + 1];
  }
  params_.resize(total);
  layers_.reserve(sizes_.size() - 1);
  std::size_t offset = 0;
  std::size_t act_offset = 0;
  for (std::size_t l = 0; l + 1 < sizes_.size(); ++l) {
    const std::size_t in = sizes_[l];
    const std::size_t out = sizes_[l + 1];
    const Activation act = (l + 2 == sizes_.size()) ? output : hidden;
    LayerView view{offset, offset + in * out, act_offset, in, out, act};
    offset += in * out + out;
    act_offset += in;
    // Xavier/Glorot uniform initialization keeps tanh layers in their linear
    // region at the start of training.
    const double bound = std::sqrt(6.0 / static_cast<double>(in + out));
    for (std::size_t i = 0; i < in * out; ++i) {
      params_[view.w_offset + i] = rng.uniform(-bound, bound);
    }
    for (std::size_t i = 0; i < out; ++i) params_[view.b_offset + i] = 0.0;
    layers_.push_back(view);
  }
  activations_ = act_offset + sizes_.back();
}

std::vector<double> Mlp::forward(std::span<const double> x) const {
  Workspace ws;
  const std::span<const double> y = forward(x, ws);
  return {y.begin(), y.end()};
}

std::span<const double> Mlp::forward(std::span<const double> x, Workspace& ws) const {
  if (x.empty() || x.size() % input_dim() != 0) {
    throw std::invalid_argument("Mlp::forward: bad input size");
  }
  const std::size_t rows = x.size() / input_dim();
  ws.rows = rows;
  ws.post.resize(rows * activations_);
  double* post = ws.post.data();
  std::copy(x.begin(), x.end(), post);
  // affine() reads a layer's weights input-major; one transposition into this
  // per-thread scratch serves every row.  It keeps forward() const, safe to
  // call from several threads and allocation-free once warm, without a
  // second copy of every network's weights.
  thread_local std::vector<double> weights_t;
  for (const LayerView& layer : layers_) {
    const double* in = post + rows * layer.act_offset;
    double* out = post + rows * (layer.act_offset + layer.in);
    weights_t.resize(layer.in * layer.out);
    transpose(&params_[layer.w_offset], weights_t.data(), layer.in, layer.out);
    for (std::size_t n = 0; n < rows; ++n) {
      affine(weights_t.data(), &params_[layer.b_offset], in + n * layer.in, out + n * layer.out,
             layer.in, layer.out);
    }
    activate_all(layer.act, out, rows * layer.out);
  }
  return {post + rows * (activations_ - output_dim()), rows * output_dim()};
}

void Mlp::backprop_deltas(Workspace& ws, std::span<const double> dLdy, bool to_input) const {
  const std::size_t rows = ws.rows;
  if (rows == 0 || ws.post.size() != rows * activations_) {
    throw std::invalid_argument("Mlp::backward: workspace holds no forward pass of this network");
  }
  if (dLdy.size() != rows * output_dim()) {
    throw std::invalid_argument("Mlp::backward: bad dLdy size");
  }
  ws.delta.resize(rows * activations_);
  double* delta = ws.delta.data();
  std::copy(dLdy.begin(), dLdy.end(), delta + rows * (activations_ - output_dim()));
  for (std::size_t li = layers_.size(); li-- > 0;) {
    const LayerView& layer = layers_[li];
    // d holds dL/d(post-activation) of this layer; make it dL/dz.
    const std::size_t out_offset = rows * (layer.act_offset + layer.in);
    double* d = delta + out_offset;
    scale_by_slope(layer.act, ws.post.data() + out_offset, d, rows * layer.out);
    if (li == 0 && !to_input) return;
    double* dx = delta + rows * layer.act_offset;
    for (std::size_t n = 0; n < rows; ++n) {
      transpose_affine(&params_[layer.w_offset], d + n * layer.out, dx + n * layer.in, layer.in,
                       layer.out);
    }
  }
}

void Mlp::backward(Workspace& ws, std::span<const double> dLdy, std::span<double> grad) const {
  if (grad.size() != params_.size()) throw std::invalid_argument("Mlp::backward: bad grad size");
  backprop_deltas(ws, dLdy, false);
  const std::size_t rows = ws.rows;
  for (const LayerView& layer : layers_) {
    const double* input = ws.post.data() + rows * layer.act_offset;
    const double* d = ws.delta.data() + rows * (layer.act_offset + layer.in);
    for (std::size_t o = 0; o < layer.out; ++o) {
      double* __restrict gw_row = &grad[layer.w_offset + o * layer.in];
      double& gb = grad[layer.b_offset + o];
      for (std::size_t n = 0; n < rows; ++n) {
        const double dn = d[n * layer.out + o];
        const double* __restrict x = input + n * layer.in;
        for (std::size_t i = 0; i < layer.in; ++i) gw_row[i] += dn * x[i];
        gb += dn;
      }
    }
  }
}

std::span<const double> Mlp::input_gradient(Workspace& ws, std::span<const double> dLdy) const {
  backprop_deltas(ws, dLdy, true);
  return {ws.delta.data(), ws.rows * input_dim()};
}

void Mlp::save(std::ostream& os) const { state::write_doubles(os, "mlp", params_); }

void Mlp::load(std::istream& is) {
  std::vector<double> params = state::read_doubles(is, "mlp");
  if (params.size() != params_.size()) {
    state::bad("Mlp state size mismatch: network has " + std::to_string(params_.size()) +
               " parameters, state holds " + std::to_string(params.size()));
  }
  params_ = std::move(params);
}

}  // namespace glova::nn
