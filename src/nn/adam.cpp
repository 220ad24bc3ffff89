#include "nn/adam.hpp"

#include <cmath>
#include <ostream>
#include <stdexcept>

#include "common/state_io.hpp"

namespace glova::nn {

Adam::Adam(std::size_t parameter_count, AdamConfig config)
    : config_(config), m_(parameter_count, 0.0), v_(parameter_count, 0.0) {}

void Adam::step(std::span<double> params, std::span<const double> grad) {
  if (params.size() != m_.size() || grad.size() != m_.size()) {
    throw std::invalid_argument("Adam::step: size mismatch");
  }
  ++t_;
  const double b1 = config_.beta1;
  const double b2 = config_.beta2;
  const double lr = config_.learning_rate;
  const double eps = config_.epsilon;
  const double bias1 = 1.0 - std::pow(b1, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(b2, static_cast<double>(t_));
  double* __restrict p = params.data();
  const double* __restrict g = grad.data();
  double* __restrict m = m_.data();
  double* __restrict v = v_.data();
  // One fused pass; with -fno-math-errno the sqrt needs no errno branch and
  // the loop vectorizes (vsqrtpd is correctly rounded, so the bits match).
  for (std::size_t i = 0; i < params.size(); ++i) {
    m[i] = b1 * m[i] + (1.0 - b1) * g[i];
    v[i] = b2 * v[i] + (1.0 - b2) * g[i] * g[i];
    const double m_hat = m[i] / bias1;
    const double v_hat = v[i] / bias2;
    p[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
  }
}

void Adam::save(std::ostream& os) const {
  os << "adam " << t_ << '\n';
  state::write_doubles(os, "m", m_);
  state::write_doubles(os, "v", v_);
}

void Adam::load(std::istream& is) {
  const std::size_t t = state::parse_u64(state::expect_line(is, "adam"), "adam step count");
  std::vector<double> m = state::read_doubles(is, "m");
  std::vector<double> v = state::read_doubles(is, "v");
  if (m.size() != m_.size() || v.size() != v_.size()) {
    state::bad("Adam state size mismatch: expected " + std::to_string(m_.size()) + " parameters, got " +
               std::to_string(m.size()) + "/" + std::to_string(v.size()));
  }
  t_ = t;
  m_ = std::move(m);
  v_ = std::move(v);
}

}  // namespace glova::nn
