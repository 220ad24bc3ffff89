// Tests for the neural-network substrate: activation math, analytic
// gradients against finite differences (the load-bearing property for the
// whole RL stack), Adam convergence, and end-to-end regression.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "nn/adam.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"

namespace glova::nn {
namespace {

TEST(Activation, ValuesAndDerivatives) {
  EXPECT_DOUBLE_EQ(activate(Activation::Identity, 1.7), 1.7);
  EXPECT_DOUBLE_EQ(activate_grad_from_output(Activation::Identity, 1.7), 1.0);
  EXPECT_DOUBLE_EQ(activate(Activation::ReLU, -2.0), 0.0);
  EXPECT_DOUBLE_EQ(activate(Activation::ReLU, 2.0), 2.0);
  EXPECT_NEAR(activate(Activation::Tanh, 0.5), std::tanh(0.5), 1e-15);
  EXPECT_NEAR(activate(Activation::Sigmoid, 0.0), 0.5, 1e-15);
  // Derivative (from the activation's output) consistency via finite
  // differences.
  for (const Activation act :
       {Activation::Tanh, Activation::Sigmoid, Activation::Identity, Activation::ReLU}) {
    for (const double x : {0.37, -0.61}) {
      const double eps = 1e-6;
      const double fd = (activate(act, x + eps) - activate(act, x - eps)) / (2 * eps);
      EXPECT_NEAR(activate_grad_from_output(act, activate(act, x)), fd, 1e-8);
    }
  }
}

TEST(Mlp, ShapesAndDeterminism) {
  Rng rng(1);
  const Mlp net({3, 8, 8, 2}, Activation::Tanh, Activation::Identity, rng);
  EXPECT_EQ(net.input_dim(), 3u);
  EXPECT_EQ(net.output_dim(), 2u);
  EXPECT_EQ(net.layer_count(), 3u);
  EXPECT_EQ(net.parameter_count(), 3u * 8 + 8 + 8u * 8 + 8 + 8u * 2 + 2);
  const std::vector<double> x = {0.1, -0.2, 0.3};
  EXPECT_EQ(net.forward(x), net.forward(x));
}

TEST(Mlp, BadInputSizeThrows) {
  Rng rng(1);
  const Mlp net({2, 4, 1}, Activation::Tanh, Activation::Identity, rng);
  EXPECT_THROW((void)net.forward(std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Mlp, MinibatchPassEqualsOnePassPerRow) {
  // Rows of one pass get exactly the bits of separate one-row passes, and
  // parameter gradients accumulate as one backward() per row in row order.
  Rng rng(3);
  const Mlp net({5, 40, 33, 3}, Activation::Tanh, Activation::Sigmoid, rng);
  constexpr std::size_t kRows = 7;
  const std::vector<double> x = rng.uniform_vector(kRows * 5, -1.0, 1.0);
  const std::vector<double> dLdy = rng.uniform_vector(kRows * 3, -1.0, 1.0);
  Mlp::Workspace batch;
  const std::span<const double> y_view = net.forward(x, batch);
  const std::vector<double> y(y_view.begin(), y_view.end());
  const std::span<const double> dx_view = net.input_gradient(batch, dLdy);
  const std::vector<double> dx(dx_view.begin(), dx_view.end());
  std::vector<double> grad(net.parameter_count(), 0.0);
  net.backward(batch, dLdy, grad);

  std::vector<double> grad_rows(net.parameter_count(), 0.0);
  Mlp::Workspace one;
  for (std::size_t n = 0; n < kRows; ++n) {
    const std::span<const double> xn(x.data() + n * 5, 5);
    const std::span<const double> dn(dLdy.data() + n * 3, 3);
    const std::span<const double> yn = net.forward(xn, one);
    for (std::size_t o = 0; o < 3; ++o) EXPECT_EQ(yn[o], y[n * 3 + o]) << "row " << n;
    const std::span<const double> gn = net.input_gradient(one, dn);
    for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(gn[i], dx[n * 5 + i]) << "row " << n;
    net.backward(one, dn, grad_rows);
  }
  EXPECT_EQ(grad, grad_rows);
}

/// Property sweep: analytic gradients match finite differences across
/// architectures and activation choices.
struct GradCase {
  std::vector<std::size_t> sizes;
  Activation hidden;
  Activation output;
};

class MlpGradient : public ::testing::TestWithParam<int> {};

TEST_P(MlpGradient, MatchesFiniteDifferences) {
  static const GradCase cases[] = {
      {{2, 5, 1}, Activation::Tanh, Activation::Identity},
      {{3, 6, 6, 2}, Activation::Tanh, Activation::Sigmoid},
      {{4, 8, 8, 8, 4}, Activation::Tanh, Activation::Sigmoid},
      {{5, 7, 3}, Activation::ReLU, Activation::Identity},
      {{1, 4, 4, 1}, Activation::Sigmoid, Activation::Identity},
  };
  const GradCase& c = cases[GetParam() % std::size(cases)];
  Rng rng(17 + GetParam());
  Mlp net(c.sizes, c.hidden, c.output, rng);
  const std::vector<double> x = rng.uniform_vector(c.sizes.front(), -0.9, 0.9);
  const std::vector<double> dLdy = rng.uniform_vector(c.sizes.back(), -1.0, 1.0);

  Mlp::Workspace ws;
  (void)net.forward(x, ws);
  std::vector<double> grad(net.parameter_count(), 0.0);
  net.backward(ws, dLdy, grad);
  const std::span<const double> dx_view = net.input_gradient(ws, dLdy);
  const std::vector<double> dx(dx_view.begin(), dx_view.end());

  const auto loss_at = [&](void) {
    const auto y = net.forward(x);
    double l = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) l += dLdy[i] * y[i];
    return l;
  };

  // Parameter gradients (spot-check a deterministic subset for speed).
  const double eps = 1e-6;
  auto params = net.parameters();
  for (std::size_t i = 0; i < net.parameter_count(); i += std::max<std::size_t>(1, net.parameter_count() / 25)) {
    const double saved = params[i];
    params[i] = saved + eps;
    const double up = loss_at();
    params[i] = saved - eps;
    const double down = loss_at();
    params[i] = saved;
    EXPECT_NEAR(grad[i], (up - down) / (2 * eps), 1e-5) << "param " << i;
  }

  // Input gradients.
  std::vector<double> x_mut = x;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double saved = x_mut[i];
    x_mut[i] = saved + eps;
    const auto yu = net.forward(x_mut);
    x_mut[i] = saved - eps;
    const auto yd = net.forward(x_mut);
    x_mut[i] = saved;
    double fd = 0.0;
    for (std::size_t o = 0; o < yu.size(); ++o) fd += dLdy[o] * (yu[o] - yd[o]) / (2 * eps);
    EXPECT_NEAR(dx[i], fd, 1e-5) << "input " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, MlpGradient, ::testing::Range(0, 10));

TEST(Adam, ConvergesOnQuadratic) {
  // minimize (p - 3)^2 elementwise.
  std::vector<double> params(4, 0.0);
  Adam adam(4, AdamConfig{0.05, 0.9, 0.999, 1e-8});
  for (int step = 0; step < 500; ++step) {
    std::vector<double> grad(4);
    for (std::size_t i = 0; i < 4; ++i) grad[i] = 2.0 * (params[i] - 3.0);
    adam.step(params, grad);
  }
  for (const double p : params) EXPECT_NEAR(p, 3.0, 1e-2);
  EXPECT_EQ(adam.step_count(), 500u);
}

TEST(Adam, SizeMismatchThrows) {
  Adam adam(3);
  std::vector<double> params(3, 0.0);
  EXPECT_THROW(adam.step(params, std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Loss, MseAndGradient) {
  const std::vector<double> pred = {1.0, 2.0};
  const std::vector<double> target = {0.0, 4.0};
  EXPECT_DOUBLE_EQ(mse(pred, target), 0.5 * (0.5 * 1.0 + 0.5 * 4.0));
  const auto g = mse_grad(pred, target);
  EXPECT_DOUBLE_EQ(g[0], 0.5);
  EXPECT_DOUBLE_EQ(g[1], -1.0);
  EXPECT_DOUBLE_EQ(mse(2.0, 3.0), 0.5);
  EXPECT_DOUBLE_EQ(mse_grad_scalar(2.0, 3.0), -1.0);
}

TEST(Serialization, MlpSaveLoadRoundTripsParameters) {
  Rng rng(41);
  Mlp net({3, 8, 2}, Activation::Tanh, Activation::Identity, rng);
  std::ostringstream saved;
  net.save(saved);

  Rng rng2(99);  // different init: load must overwrite every parameter
  Mlp restored({3, 8, 2}, Activation::Tanh, Activation::Identity, rng2);
  std::istringstream in(saved.str());
  restored.load(in);
  ASSERT_EQ(restored.parameter_count(), net.parameter_count());
  for (std::size_t i = 0; i < net.parameter_count(); ++i) {
    EXPECT_EQ(restored.parameters()[i], net.parameters()[i]) << "parameter " << i;
  }
  // Bit-identical parameters mean bit-identical inference.
  const std::vector<double> x = {0.1, -0.7, 2.5};
  EXPECT_EQ(restored.forward(x), net.forward(x));

  // Save -> load -> save is a byte fixed point.
  std::ostringstream resaved;
  restored.save(resaved);
  EXPECT_EQ(resaved.str(), saved.str());
}

TEST(Serialization, MlpLoadRejectsMismatchedShape) {
  Rng rng(41);
  Mlp small({2, 4, 1}, Activation::Tanh, Activation::Identity, rng);
  Mlp big({3, 8, 2}, Activation::Tanh, Activation::Identity, rng);
  std::ostringstream saved;
  small.save(saved);
  std::istringstream in(saved.str());
  try {
    big.load(in);
    FAIL() << "load() must reject a parameter-count mismatch";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("size mismatch"), std::string::npos) << e.what();
  }
}

TEST(Serialization, AdamSaveLoadRoundTripsMoments) {
  Rng rng(7);
  Mlp net({2, 6, 1}, Activation::Tanh, Activation::Identity, rng);
  Adam adam(net.parameter_count());
  Mlp::Workspace ws;
  // A few real steps so the moments and timestep are non-trivial.
  for (int step = 0; step < 5; ++step) {
    std::vector<double> grad(net.parameter_count(), 0.0);
    const auto y = net.forward(std::vector<double>{0.3, -0.9}, ws);
    const std::vector<double> dLdy = {y[0] - 1.0};
    net.backward(ws, dLdy, grad);
    adam.step(net.parameters(), grad);
  }
  std::ostringstream saved;
  adam.save(saved);

  Adam restored(net.parameter_count());
  std::istringstream in(saved.str());
  restored.load(in);
  std::ostringstream resaved;
  restored.save(resaved);
  EXPECT_EQ(resaved.str(), saved.str());  // full state: t, m, v

  // The restored optimizer continues exactly like the original: one more
  // identical step must produce identical parameters.
  std::vector<double> params_a(net.parameters().begin(), net.parameters().end());
  std::vector<double> params_b = params_a;
  std::vector<double> grad(net.parameter_count(), 0.01);
  adam.step(params_a, grad);
  restored.step(params_b, grad);
  EXPECT_EQ(params_a, params_b);
}

TEST(Serialization, AdamLoadRejectsMismatchedCount) {
  Adam small(4);
  std::ostringstream saved;
  small.save(saved);
  Adam big(9);
  std::istringstream in(saved.str());
  try {
    big.load(in);
    FAIL() << "load() must reject a moment-length mismatch";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("size mismatch"), std::string::npos) << e.what();
  }
}

TEST(Training, LearnsOneDimensionalRegression) {
  // Fit y = sin(3x) on a fixed grid (full-batch); checks the complete
  // forward/backward/Adam loop end to end.
  Rng rng(23);
  Mlp net({1, 24, 24, 1}, Activation::Tanh, Activation::Identity, rng);
  Adam adam(net.parameter_count(), AdamConfig{5e-3, 0.9, 0.999, 1e-8});
  Mlp::Workspace ws;
  constexpr int kGrid = 64;
  for (int epoch = 0; epoch < 1500; ++epoch) {
    std::vector<double> grad(net.parameter_count(), 0.0);
    for (int i = 0; i < kGrid; ++i) {
      const double x = -1.0 + 2.0 * i / (kGrid - 1);
      const double target = std::sin(3.0 * x);
      const auto y = net.forward(std::vector<double>{x}, ws);
      const std::vector<double> dLdy = {mse_grad_scalar(y[0], target) / kGrid};
      net.backward(ws, dLdy, grad);
    }
    adam.step(net.parameters(), grad);
  }
  double worst = 0.0;
  for (double x = -1.0; x <= 1.0; x += 0.05) {
    const double y = net.forward(std::vector<double>{x})[0];
    worst = std::max(worst, std::abs(y - std::sin(3.0 * x)));
  }
  EXPECT_LT(worst, 0.15);
}

/// FNV-1a over the bit patterns of `v`, chained through `h`.
std::uint64_t fnv1a(std::uint64_t h, std::span<const double> v) {
  for (const double d : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    for (int b = 0; b < 8; ++b) h = (h ^ ((bits >> (8 * b)) & 0xFF)) * 0x100000001B3ull;
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;

TEST(Training, SeededKernelsAreBitIdentical) {
  // Pins the exact bits of forward, backward, input_gradient and Adam for
  // every activation: a kernel rewrite must keep each sum in its order.
  static const GradCase cases[] = {
      {{14, 64, 64, 64, 14}, Activation::Tanh, Activation::Sigmoid},
      {{14, 64, 64, 64, 1}, Activation::Tanh, Activation::Identity},
      {{5, 7, 3}, Activation::ReLU, Activation::Identity},
      {{3, 9, 2}, Activation::Sigmoid, Activation::Tanh},
  };
  std::uint64_t h = kFnvOffset;
  for (std::size_t k = 0; k < std::size(cases); ++k) {
    const GradCase& c = cases[k];
    Rng rng(31 + k);
    Mlp net(c.sizes, c.hidden, c.output, rng);
    Adam adam(net.parameter_count());
    Mlp::Workspace ws;
    for (int step = 0; step < 6; ++step) {
      std::vector<double> grad(net.parameter_count(), 0.0);
      for (int n = 0; n < 4; ++n) {
        const std::vector<double> x = rng.uniform_vector(c.sizes.front(), -1.5, 1.5);
        const std::vector<double> dLdy = rng.uniform_vector(c.sizes.back(), -1.0, 1.0);
        h = fnv1a(h, net.forward(x, ws));
        h = fnv1a(h, net.input_gradient(ws, dLdy));
        net.backward(ws, dLdy, grad);
      }
      h = fnv1a(h, grad);
      adam.step(net.parameters(), grad);
    }
    h = fnv1a(h, net.parameters());
    std::ostringstream state;
    adam.save(state);
    const std::string text = state.str();
    for (const char ch : text) h = (h ^ static_cast<unsigned char>(ch)) * 0x100000001B3ull;
  }
  EXPECT_EQ(h, 0xf41778bc0bdd3129ull) << std::hex << "digest 0x" << h;
}

}  // namespace
}  // namespace glova::nn
