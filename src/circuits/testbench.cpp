#include "circuits/testbench.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace glova::circuits {

std::vector<double> SizingSpec::denormalize(std::span<const double> x01) const {
  if (x01.size() != dimension()) throw std::invalid_argument("SizingSpec::denormalize: bad size");
  std::vector<double> phys(dimension());
  for (std::size_t i = 0; i < dimension(); ++i) {
    const double t = std::clamp(x01[i], 0.0, 1.0);
    phys[i] = lower[i] + t * (upper[i] - lower[i]);
  }
  return phys;
}

std::vector<double> SizingSpec::normalize(std::span<const double> physical) const {
  if (physical.size() != dimension()) throw std::invalid_argument("SizingSpec::normalize: bad size");
  std::vector<double> x01(dimension());
  for (std::size_t i = 0; i < dimension(); ++i) {
    const double span = upper[i] - lower[i];
    x01[i] = span > 0.0 ? std::clamp((physical[i] - lower[i]) / span, 0.0, 1.0) : 0.0;
  }
  return x01;
}

void SizingSpec::clamp01(std::span<double> x01) {
  for (double& v : x01) v = std::clamp(v, 0.0, 1.0);
}

double SizingSpec::log10_space_size(double steps_per_axis) const {
  return static_cast<double>(dimension()) * std::log10(steps_per_axis);
}

double normalized_margin(const MetricSpec& spec, double value) {
  const double c = spec.bound;
  const double f = value;
  double num = 0.0;
  double den = 0.0;
  if (spec.sense == Sense::MinimizeBelow) {
    num = c - f;
    den = c + f;
  } else {
    num = f - c;
    den = f + c;
  }
  // Raw metrics are positive magnitudes, so den > 0 in practice; guard for
  // robustness against degenerate evaluator output.
  den = std::max(std::abs(den), 1e-30);
  return std::clamp(num / den, -1.0, 1.0);
}

std::vector<std::vector<double>> Testbench::evaluate_draws(
    std::span<const double> x, const pdk::PvtCorner& corner,
    std::span<const std::vector<double>> hs, std::vector<EvaluationFailure>& failures) const {
  std::vector<std::vector<double>> out;
  out.reserve(hs.size());
  failures.assign(hs.size(), {});
  for (std::size_t i = 0; i < hs.size(); ++i) {
    try {
      out.push_back(evaluate(x, corner, hs[i]));
    } catch (const EvaluationError& e) {
      failures[i] = e.failure();
      out.push_back(e.penalty_metrics());
    }
  }
  return out;
}

double degradation(const MetricSpec& spec, double value) { return -normalized_margin(spec, value); }

}  // namespace glova::circuits
