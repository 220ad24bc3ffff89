#include "rl/agent.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/state_io.hpp"
#include "common/text.hpp"
#include "nn/loss.hpp"

namespace glova::rl {

namespace {

nn::Mlp make_actor(std::size_t design_dim, std::size_t hidden, Rng stream) {
  // 4-layer network; sigmoid output keeps proposals inside [0,1]^p.
  return nn::Mlp(std::vector<std::size_t>{design_dim, hidden, hidden, hidden, design_dim},
                 nn::Activation::Tanh, nn::Activation::Sigmoid, stream);
}

EnsembleCritic make_critic(std::size_t design_dim, const CriticConfig& config, Rng stream) {
  return EnsembleCritic(design_dim, config, stream);
}

}  // namespace

RiskSensitiveAgent::RiskSensitiveAgent(std::size_t design_dim, const AgentConfig& config, Rng rng)
    : config_(config),
      rng_(rng),
      actor_(make_actor(design_dim, config.hidden, rng.split(0xAC70))),
      actor_opt_(actor_.parameter_count(),
                 nn::AdamConfig{config.actor_learning_rate, 0.9, 0.999, 1e-8}),
      critic_(make_critic(design_dim, config.critic, rng.split(0xC217))),
      noise_(config.noise_initial) {}

double RiskSensitiveAgent::update(const WorstCaseReplayBuffer& buffer) {
  if (buffer.empty()) return 0.0;
  ++updates_;

  // --- critic: each base model trains on its own batch (Sec. IV-B) ---
  for (std::size_t i = 0; i < critic_.ensemble_size(); ++i) {
    buffer.sample(config_.batch_size, rng_, batch_);
    critic_.train_base(i, batch_);
  }

  // --- actor: minimize MSE(0.2, Q(A(x)) + bias) through the frozen critic ---
  buffer.sample(config_.batch_size, rng_, batch_);
  stack_designs(batch_, actor_.input_dim(), rows_);
  const std::span<const double> actions = actor_.forward(rows_, actor_ws_);
  const std::span<const EnsembleCritic::Bound> bounds = critic_.forward(actions, critic_tape_);
  dLdq_.resize(bounds.size());
  double loss = 0.0;
  const double scale = 1.0 / static_cast<double>(bounds.size());
  for (std::size_t n = 0; n < bounds.size(); ++n) {
    const double q = bounds[n].risk_adjusted + config_.critic.bias;
    loss += nn::mse(q, config_.target_reward) * scale;
    dLdq_[n] = nn::mse_grad_scalar(q, config_.target_reward) * scale;
  }
  actor_grad_.assign(actor_.parameter_count(), 0.0);
  actor_.backward(actor_ws_, critic_.input_gradient(critic_tape_, dLdq_), actor_grad_);
  actor_opt_.step(actor_.parameters(), actor_grad_);
  return loss;
}

std::vector<double> RiskSensitiveAgent::propose(std::span<const double> x_last) {
  std::vector<double> x_new = actor_.forward(x_last);
  for (double& v : x_new) {
    v = std::clamp(v + rng_.normal(0.0, noise_), 0.0, 1.0);
  }
  noise_ = std::max(config_.noise_min, noise_ * config_.noise_decay);
  return x_new;
}

RiskSensitiveAgent::Proposal RiskSensitiveAgent::propose_screened(std::span<const double> x_last,
                                                                  std::size_t candidates) {
  const std::vector<double> mean = actor_.forward(x_last);
  const std::size_t p = mean.size();
  const std::size_t count = std::max<std::size_t>(candidates, 1);
  rows_.resize(count * p);
  for (std::size_t c = 0; c < count; ++c) {
    // A fraction of candidates explore at doubled noise so the screen can
    // escape shallow local basins.
    const double sigma = (c % 4 == 3) ? 2.0 * noise_ : noise_;
    for (std::size_t d = 0; d < p; ++d) {
      rows_[c * p + d] = std::clamp(mean[d] + rng_.normal(0.0, sigma), 0.0, 1.0);
    }
  }
  noise_ = std::max(config_.noise_min, noise_ * config_.noise_decay);
  // All candidates go through the ensemble as one batch; the first with the
  // highest bound wins.
  const std::span<const EnsembleCritic::Bound> bounds = critic_.forward(rows_, critic_tape_);
  std::size_t best = count;
  double best_bound = -std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < count; ++c) {
    if (bounds[c].risk_adjusted > best_bound) {
      best_bound = bounds[c].risk_adjusted;
      best = c;
    }
  }
  // Every bound was NaN: the unscreened actor output stands.
  if (best == count) return {mean, critic_.forward(mean, critic_tape_)[0]};
  const auto row = rows_.begin() + static_cast<std::ptrdiff_t>(best * p);
  return {std::vector<double>(row, row + static_cast<std::ptrdiff_t>(p)), bounds[best]};
}

std::vector<double> RiskSensitiveAgent::act(std::span<const double> x_last) const {
  return actor_.forward(x_last);
}

void RiskSensitiveAgent::save(std::ostream& os) const {
  os << "agent " << updates_ << ' ' << format_double_roundtrip(noise_) << '\n';
  os << "agent_rng " << rng_.save() << '\n';
  actor_.save(os);
  actor_opt_.save(os);
  critic_.save(os);
}

void RiskSensitiveAgent::load(std::istream& is) {
  std::istringstream head(state::expect_line(is, "agent"));
  std::size_t updates = 0;
  double noise = 0.0;
  if (!(head >> updates >> noise)) state::bad("malformed agent header");
  rng_.restore(state::expect_line(is, "agent_rng"));
  actor_.load(is);
  actor_opt_.load(is);
  critic_.load(is);
  updates_ = updates;
  noise_ = noise;
}

}  // namespace glova::rl
