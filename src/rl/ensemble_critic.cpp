#include "rl/ensemble_critic.hpp"

#include <cmath>
#include <ostream>
#include <stdexcept>

#include "common/state_io.hpp"
#include "nn/loss.hpp"

namespace glova::rl {

EnsembleCritic::EnsembleCritic(std::size_t input_dim, const CriticConfig& config, Rng& rng)
    : config_(config) {
  if (config_.ensemble_size == 0) throw std::invalid_argument("EnsembleCritic: empty ensemble");
  models_.reserve(config_.ensemble_size);
  optimizers_.reserve(config_.ensemble_size);
  for (std::size_t i = 0; i < config_.ensemble_size; ++i) {
    Rng stream = rng.split(i + 1);
    // 4-layer network (paper Sec. IV-A): input -> h -> h -> h -> 1.
    models_.emplace_back(
        std::vector<std::size_t>{input_dim, config_.hidden, config_.hidden, config_.hidden, 1},
        nn::Activation::Tanh, nn::Activation::Identity, stream);
    optimizers_.emplace_back(models_.back().parameter_count(),
                             nn::AdamConfig{config_.learning_rate, 0.9, 0.999, 1e-8});
  }
}

EnsembleCritic::Bound EnsembleCritic::bound(std::span<const double> x) const {
  if (x.size() != models_.front().input_dim()) {
    throw std::invalid_argument("EnsembleCritic::bound: bad design size");
  }
  Tape tape;
  return forward(x, tape)[0];
}

std::span<const EnsembleCritic::Bound> EnsembleCritic::forward(std::span<const double> x,
                                                                Tape& tape) const {
  const std::size_t e = models_.size();
  tape.members.resize(e);
  for (std::size_t i = 0; i < e; ++i) {
    const std::span<const double> y = models_[i].forward(x, tape.members[i]);
    tape.outs.resize(y.size() * e);
    for (std::size_t n = 0; n < y.size(); ++n) tape.outs[n * e + i] = y[n];
  }
  const std::size_t rows = tape.members.front().rows;
  tape.bounds.resize(rows);
  for (std::size_t n = 0; n < rows; ++n) {
    const double* outs = &tape.outs[n * e];
    double mean = 0.0;
    for (std::size_t i = 0; i < e; ++i) mean += outs[i];
    mean /= static_cast<double>(e);
    double var = 0.0;
    for (std::size_t i = 0; i < e; ++i) var += (outs[i] - mean) * (outs[i] - mean);
    var = e > 1 ? var / static_cast<double>(e - 1) : 0.0;
    Bound& b = tape.bounds[n];
    b.mean = mean;
    b.std = std::sqrt(var);
    b.risk_adjusted = mean + config_.beta1 * b.std;
  }
  return tape.bounds;
}

std::span<const double> EnsembleCritic::input_gradient(Tape& tape,
                                                       std::span<const double> dLdq) const {
  // Q = mean_i Q_i + beta1 * sigma.  dQ/dQ_i = 1/E + beta1 * (Q_i - mean) /
  // ((E-1) * sigma); for sigma -> 0 only the mean term survives.
  const std::size_t e = models_.size();
  const std::size_t rows = tape.bounds.size();
  if (dLdq.size() != rows) throw std::invalid_argument("EnsembleCritic::input_gradient: bad dLdq");
  tape.dl.resize(rows);
  tape.dx.assign(rows * models_.front().input_dim(), 0.0);
  for (std::size_t i = 0; i < e; ++i) {
    for (std::size_t n = 0; n < rows; ++n) {
      const Bound& b = tape.bounds[n];
      double weight = 1.0 / static_cast<double>(e);
      if (e > 1 && b.std > 1e-12) {
        weight += config_.beta1 * (tape.outs[n * e + i] - b.mean) /
                  (static_cast<double>(e - 1) * b.std);
      }
      tape.dl[n] = dLdq[n] * weight;
    }
    const std::span<const double> gi = models_[i].input_gradient(tape.members[i], tape.dl);
    for (std::size_t d = 0; d < tape.dx.size(); ++d) tape.dx[d] += gi[d];
  }
  return tape.dx;
}

double EnsembleCritic::train_base(std::size_t i, std::span<const Experience* const> batch) {
  if (i >= models_.size()) throw std::out_of_range("EnsembleCritic::train_base");
  if (batch.empty()) throw std::invalid_argument("EnsembleCritic::train_base: empty batch");
  nn::Mlp& model = models_[i];
  stack_designs(batch, model.input_dim(), train_x_);
  const std::span<const double> out = model.forward(train_x_, train_ws_);
  train_dLdy_.resize(batch.size());
  double loss = 0.0;
  const double scale = 1.0 / static_cast<double>(batch.size());
  for (std::size_t n = 0; n < batch.size(); ++n) {
    const double pred = out[n] + config_.bias;
    loss += nn::mse(pred, batch[n]->reward) * scale;
    train_dLdy_[n] = nn::mse_grad_scalar(pred, batch[n]->reward) * scale;
  }
  train_grad_.assign(model.parameter_count(), 0.0);
  model.backward(train_ws_, train_dLdy_, train_grad_);
  optimizers_[i].step(model.parameters(), train_grad_);
  return loss;
}

void EnsembleCritic::save(std::ostream& os) const {
  os << "critic " << models_.size() << '\n';
  for (std::size_t i = 0; i < models_.size(); ++i) {
    models_[i].save(os);
    optimizers_[i].save(os);
  }
}

void EnsembleCritic::load(std::istream& is) {
  const std::size_t n = state::parse_u64(state::expect_line(is, "critic"), "critic ensemble size");
  if (n != models_.size()) {
    state::bad("critic ensemble size mismatch: expected " + std::to_string(models_.size()) +
               ", got " + std::to_string(n));
  }
  for (std::size_t i = 0; i < models_.size(); ++i) {
    models_[i].load(is);
    optimizers_[i].load(is);
  }
}

}  // namespace glova::rl
