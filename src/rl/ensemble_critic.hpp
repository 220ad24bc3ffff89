// Ensemble-based critic (paper Sec. IV-B, Eq. 6):
//
//   Q(x) = E[Q_i(x)] + beta1 * sigma[Q_i(x)],   beta1 < 0 (risk avoidance)
//
// Each base model is a 4-layer MLP trained on its own batch from the
// worst-case replay buffer; the ensemble spread estimates the uncertainty of
// the design-reliability bound that only ~N' = 2..5 mismatch samples per
// iteration could never pin down directly.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "nn/adam.hpp"
#include "nn/mlp.hpp"
#include "rl/replay_buffer.hpp"

namespace glova::rl {

struct CriticConfig {
  std::size_t ensemble_size = 5;
  std::size_t hidden = 64;
  double beta1 = -3.0;        ///< risk-avoidance parameter (Eq. 6)
  double learning_rate = 1e-3;
  double bias = 0.0;          ///< the constant bias term of Algorithm 1's losses
};

class EnsembleCritic {
 public:
  EnsembleCritic(std::size_t input_dim, const CriticConfig& config, Rng& rng);

  /// Mean and std of the base-model outputs (Fig. 3 reproduction) and the
  /// risk-adjusted bound Q(x) of Eq. (6).
  struct Bound {
    double mean = 0.0;
    double std = 0.0;
    double risk_adjusted = 0.0;
  };

  /// Caller-owned record of one ensemble forward pass over one or more
  /// designs: every member's activations and outputs, so input_gradient()
  /// reuses the pass.  Sized on first use; reusing it keeps
  /// forward/input_gradient allocation-free.
  struct Tape {
    std::vector<nn::Mlp::Workspace> members;
    std::vector<double> outs;   ///< rows x members
    std::vector<Bound> bounds;  ///< one per row
    std::vector<double> dl;     ///< per-row output gradient of one member
    std::vector<double> dx;     ///< rows x input_dim
  };

  [[nodiscard]] Bound bound(std::span<const double> x) const;

  /// bound() of every design in `x` (one per row of input_dim entries),
  /// recording the pass in `tape`.  The view lives in `tape`.
  std::span<const Bound> forward(std::span<const double> x, Tape& tape) const;

  /// dLdq[n] * dQ(x_n)/dx_n of the aggregated (risk-adjusted) output for
  /// every row of the last forward(x, tape), used to push gradients into
  /// the actor.  The rows x input_dim view lives in `tape`.
  std::span<const double> input_gradient(Tape& tape, std::span<const double> dLdq) const;

  /// One gradient step of base model `i` on the batch's (x01, reward)
  /// targets: L_Qi = MSE(r, Q_i(x) + bias).  Returns the batch loss.
  double train_base(std::size_t i, std::span<const Experience* const> batch);

  [[nodiscard]] std::size_t ensemble_size() const { return models_.size(); }
  [[nodiscard]] const CriticConfig& config() const { return config_; }

  /// Text-serialize every base model's parameters and optimizer moments
  /// (architecture and config come from the constructor).
  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  CriticConfig config_;
  std::vector<nn::Mlp> models_;
  std::vector<nn::Adam> optimizers_;
  // train_base scratch.
  std::vector<double> train_x_;  ///< batch x input_dim
  nn::Mlp::Workspace train_ws_;
  std::vector<double> train_dLdy_;
  std::vector<double> train_grad_;
};

}  // namespace glova::rl
