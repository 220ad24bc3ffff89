// Tests for the RL layer: buffers, the ensemble critic's risk bound (Eq. 6)
// and its gradients, agent learning on a controllable toy landscape, the
// bit-exact training digest, and allocation-free warm training steps.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "core/surrogate.hpp"
#include "rl/agent.hpp"
#include "rl/ensemble_critic.hpp"
#include "rl/replay_buffer.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter.  Replacing operator new/delete in this test
// binary lets the allocation-free claim be checked directly rather than
// inferred from timings.
namespace {
std::atomic<std::size_t> g_alloc_count{0};
std::atomic<bool> g_alloc_counting{false};
}  // namespace

void* operator new(std::size_t size) {
  if (g_alloc_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// std::stable_sort takes its buffer from the nothrow form; it must come from
// malloc too, or a sanitizer sees the free() below release another
// allocator's memory.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_alloc_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace glova::rl {
namespace {

TEST(ReplayBuffer, FifoEvictionAtCapacity) {
  WorstCaseReplayBuffer buffer(3);
  for (int i = 0; i < 5; ++i) buffer.add({static_cast<double>(i)}, i * 0.1);
  EXPECT_EQ(buffer.size(), 3u);
  // Entries 3, 4 remain plus slot recycled; best() survives eviction.
  ASSERT_TRUE(buffer.best().has_value());
  EXPECT_DOUBLE_EQ(buffer.best()->reward, 0.4);
}

TEST(ReplayBuffer, SampleFromEmptyThrows) {
  WorstCaseReplayBuffer buffer(4);
  Rng rng(1);
  std::vector<const Experience*> batch;
  EXPECT_THROW(buffer.sample(2, rng, batch), std::logic_error);
}

TEST(ReplayBuffer, SampleDrawsStoredEntries) {
  WorstCaseReplayBuffer buffer(8);
  buffer.add({1.0}, -0.5);
  buffer.add({2.0}, 0.2);
  Rng rng(2);
  std::vector<const Experience*> batch = {nullptr};
  buffer.sample(20, rng, batch);
  ASSERT_EQ(batch.size(), 20u);
  for (const Experience* e : batch) {
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->reward == -0.5 || e->reward == 0.2);
  }
}

TEST(LastWorstBuffer, TracksWorstCorner) {
  LastWorstBuffer buffer(4);
  buffer.update(0, 0.2);
  buffer.update(1, -0.3);
  buffer.update(2, 0.1);
  buffer.update(3, -0.1);
  EXPECT_EQ(buffer.worst_corner(), 1u);
  const auto order = buffer.corners_worst_first();
  EXPECT_EQ(order.front(), 1u);
  EXPECT_EQ(order[1], 3u);
  EXPECT_EQ(order.back(), 0u);
}

TEST(EnsembleCritic, BoundMathMatchesManualComputation) {
  Rng rng(3);
  CriticConfig cfg;
  cfg.ensemble_size = 5;
  cfg.beta1 = -3.0;
  EnsembleCritic critic(4, cfg, rng);
  const std::vector<double> x = {0.1, 0.4, 0.6, 0.9};
  const auto b = critic.bound(x);
  EXPECT_NEAR(b.risk_adjusted, b.mean - 3.0 * b.std, 1e-12);
  EXPECT_GE(b.std, 0.0);
  // A recorded pass over several rows gives each row its own bound.
  std::vector<double> rows = {0.9, 0.2, 0.3, 0.5};
  rows.insert(rows.end(), x.begin(), x.end());
  EnsembleCritic::Tape tape;
  const std::span<const EnsembleCritic::Bound> bounds = critic.forward(rows, tape);
  ASSERT_EQ(bounds.size(), 2u);
  EXPECT_EQ(bounds[1].mean, b.mean);
  EXPECT_EQ(bounds[1].std, b.std);
  EXPECT_EQ(bounds[1].risk_adjusted, b.risk_adjusted);
}

TEST(EnsembleCritic, NegativeBeta1IsConservative) {
  Rng rng(4);
  CriticConfig risk_averse;
  risk_averse.beta1 = -3.0;
  CriticConfig neutral;
  neutral.beta1 = 0.0;
  EnsembleCritic a(3, risk_averse, rng);
  Rng rng2(4);
  EnsembleCritic b(3, neutral, rng2);
  const std::vector<double> x = {0.2, 0.5, 0.8};
  // Same weights (same seed): risk-averse bound <= neutral mean.
  EXPECT_LE(a.bound(x).risk_adjusted, b.bound(x).risk_adjusted + 1e-12);
}

TEST(EnsembleCritic, TrainingReducesLoss) {
  Rng rng(5);
  CriticConfig cfg;
  cfg.ensemble_size = 3;
  cfg.learning_rate = 3e-3;
  EnsembleCritic critic(2, cfg, rng);
  std::vector<Experience> data;
  Rng data_rng(6);
  for (int i = 0; i < 32; ++i) {
    data.push_back({data_rng.uniform_vector(2, 0.0, 1.0), 0.0});
    data.back().reward = -std::abs(data.back().x01[0] - 0.5);
  }
  std::vector<const Experience*> batch;
  for (const Experience& e : data) batch.push_back(&e);
  double first = 0.0;
  double last = 0.0;
  for (int epoch = 0; epoch < 400; ++epoch) {
    double loss = 0.0;
    for (std::size_t i = 0; i < critic.ensemble_size(); ++i) {
      loss += critic.train_base(i, batch);
    }
    if (epoch == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, 0.2 * first);
}

TEST(EnsembleCritic, InputGradientMatchesFiniteDifference) {
  Rng rng(7);
  CriticConfig cfg;
  cfg.ensemble_size = 4;
  cfg.beta1 = -2.0;
  EnsembleCritic critic(3, cfg, rng);
  // Two designs in one pass: each row gets its own dLdq and gradient.
  const std::vector<std::vector<double>> xs = {{0.3, 0.6, 0.2}, {0.8, 0.1, 0.5}};
  const std::vector<double> dLdq = {1.7, -0.4};
  std::vector<double> rows;
  for (const auto& x : xs) rows.insert(rows.end(), x.begin(), x.end());
  EnsembleCritic::Tape tape;
  (void)critic.forward(rows, tape);
  const std::span<const double> grad = critic.input_gradient(tape, dLdq);
  ASSERT_EQ(grad.size(), rows.size());
  const double eps = 1e-6;
  for (std::size_t n = 0; n < xs.size(); ++n) {
    for (std::size_t d = 0; d < xs[n].size(); ++d) {
      std::vector<double> xp = xs[n];
      std::vector<double> xm = xs[n];
      xp[d] += eps;
      xm[d] -= eps;
      const double fd =
          dLdq[n] * (critic.bound(xp).risk_adjusted - critic.bound(xm).risk_adjusted) / (2 * eps);
      EXPECT_NEAR(grad[n * 3 + d], fd, 1e-5) << "row " << n << " dim " << d;
    }
  }
}

TEST(Agent, ProposalsStayInUnitBox) {
  AgentConfig cfg;
  RiskSensitiveAgent agent(5, cfg, Rng(8));
  const std::vector<double> x_last(5, 0.5);
  for (int i = 0; i < 50; ++i) {
    for (const double v : agent.propose(x_last)) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
  EXPECT_LT(agent.exploration_noise(), cfg.noise_initial);  // decays
}

TEST(Agent, ScreenedProposalPrefersHighBound) {
  AgentConfig cfg;
  RiskSensitiveAgent agent(2, cfg, Rng(9));
  // Train the critic so that reward = -(x0 - 0.8)^2.
  WorstCaseReplayBuffer buffer;
  Rng data(10);
  for (int i = 0; i < 200; ++i) {
    const auto x = data.uniform_vector(2, 0.0, 1.0);
    buffer.add(x, -(x[0] - 0.8) * (x[0] - 0.8));
  }
  for (int i = 0; i < 300; ++i) (void)agent.update(buffer);
  // Screened proposals should concentrate near x0 = 0.8 versus x0 = 0.2.
  const std::vector<double> x_last = {0.5, 0.5};
  double mean_x0 = 0.0;
  const int n = 30;
  for (int i = 0; i < n; ++i) mean_x0 += agent.propose_screened(x_last, 8).x[0] / n;
  EXPECT_GT(mean_x0, 0.5);
}

TEST(Agent, LearnsToProposeHighRewardDesigns) {
  // End-to-end mini-loop on a deterministic landscape: the agent should walk
  // its proposals into the high-reward region around (0.7, 0.3).
  AgentConfig cfg;
  RiskSensitiveAgent agent(2, cfg, Rng(11));
  WorstCaseReplayBuffer buffer;
  const auto reward = [](const std::vector<double>& x) {
    const double d2 = (x[0] - 0.7) * (x[0] - 0.7) + (x[1] - 0.3) * (x[1] - 0.3);
    return d2 < 0.005 ? 0.2 : -d2;
  };
  std::vector<double> x_last = {0.2, 0.8};
  buffer.add(x_last, reward(x_last));
  double best = -1e9;
  for (int iter = 0; iter < 250; ++iter) {
    const auto x_new = agent.propose_screened(x_last, 8).x;
    const double r = reward(x_new);
    best = std::max(best, r);
    buffer.add(x_new, r);
    for (int e = 0; e < 3; ++e) (void)agent.update(buffer);
    x_last = x_new;
    if (const auto top = buffer.best(); top && r < top->reward - 0.05) x_last = top->x01;
    if (best >= 0.2) break;
  }
  EXPECT_GE(best, -0.05);
}

/// FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ bytes[i]) * 0x100000001B3ull;
  return h;
}

std::uint64_t fnv1a(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return fnv1a(h, &bits, sizeof bits);
}

TEST(Agent, SeededTrainingIsBitIdentical) {
  // Pins the exact floating-point behaviour of the actor/critic kernels:
  // a seeded agent (GLOVA defaults: 5-member critic, batch 10, p = 14)
  // trains on a seeded buffer for 20 updates and makes 8 screened
  // proposals.  The digest covers every update loss, every proposal and
  // its critic bound, and the final save() text, which carries the actor
  // and critic parameters and all Adam moments at round-trip precision
  // (equal text means equal bits, and an unchanged agent-state format).
  // A kernel rewrite that reorders any sum changes the digest; only an
  // intentional numerics change may re-record it.
  constexpr std::size_t kDim = 14;
  AgentConfig cfg;
  RiskSensitiveAgent agent(kDim, cfg, Rng(21));
  WorstCaseReplayBuffer buffer;
  const auto reward = [](const std::vector<double>& x) {
    double d2 = 0.0;
    for (std::size_t d = 0; d < x.size(); ++d) d2 += (x[d] - 0.3) * (x[d] - 0.3);
    return -d2 / static_cast<double>(x.size());
  };
  Rng data(22);
  for (int i = 0; i < 40; ++i) {
    const auto x = data.uniform_vector(kDim, 0.0, 1.0);
    buffer.add(x, reward(x));
  }
  std::uint64_t h = 0xCBF29CE484222325ull;
  std::vector<double> x_last(kDim, 0.5);
  for (int round = 0; round < 4; ++round) {
    for (int u = 0; u < 5; ++u) h = fnv1a(h, agent.update(buffer));
    for (int c = 0; c < 2; ++c) {
      const RiskSensitiveAgent::Proposal proposal = agent.propose_screened(x_last, 8);
      const std::vector<double>& x = proposal.x;
      for (const double v : x) h = fnv1a(h, v);
      const EnsembleCritic::Bound b = agent.critic().bound(x);
      // The bound returned with the proposal is the critic's bound of it.
      EXPECT_EQ(proposal.bound.mean, b.mean);
      EXPECT_EQ(proposal.bound.std, b.std);
      EXPECT_EQ(proposal.bound.risk_adjusted, b.risk_adjusted);
      h = fnv1a(fnv1a(fnv1a(h, b.mean), b.std), b.risk_adjusted);
      buffer.add(x, reward(x));
      x_last = x;
    }
  }
  for (const double v : agent.act(x_last)) h = fnv1a(h, v);
  std::ostringstream state;
  agent.save(state);
  const std::string text = state.str();
  h = fnv1a(h, text.data(), text.size());
  EXPECT_EQ(h, 0x10ce28499b5b2f50ull) << std::hex << "digest 0x" << h;
}

/// Allocations made while `body` runs.
template <class F>
std::size_t allocations_in(F&& body) {
  g_alloc_count.store(0);
  g_alloc_counting.store(true);
  body();
  g_alloc_counting.store(false);
  return g_alloc_count.load();
}

TEST(Allocation, WarmTrainingStepsAllocateNothing) {
  constexpr std::size_t kDim = 14;
  WorstCaseReplayBuffer buffer;
  Rng data(31);
  for (int i = 0; i < 50; ++i) {
    buffer.add(data.uniform_vector(kDim, 0.0, 1.0), data.uniform(-1.0, 0.2));
  }
  // The counter counts: adding an experience copies its design vector.
  const std::vector<double> extra(kDim, 0.5);
  EXPECT_GE(allocations_in([&] { buffer.add(extra, -0.5); }), 1u);

  // Critic base-model steps (Algorithm 1's L_Qi).
  Rng rng(32);
  EnsembleCritic critic(kDim, CriticConfig{}, rng);
  std::vector<const Experience*> batch;
  buffer.sample(10, data, batch);
  for (std::size_t i = 0; i < critic.ensemble_size(); ++i) (void)critic.train_base(i, batch);
  EXPECT_EQ(allocations_in([&] {
              for (std::size_t i = 0; i < critic.ensemble_size(); ++i) {
                (void)critic.train_base(i, batch);
              }
            }),
            0u);

  // Full agent updates: five critic steps plus the actor step through the
  // frozen critic, replay sampling included.
  RiskSensitiveAgent agent(kDim, AgentConfig{}, Rng(33));
  (void)agent.update(buffer);
  EXPECT_EQ(allocations_in([&] {
              for (int u = 0; u < 3; ++u) (void)agent.update(buffer);
            }),
            0u);

  // The engine's online surrogate: one Adam step per observation.
  core::SurrogateModel surrogate;
  const std::vector<double> input = data.uniform_vector(9, -1.0, 1.0);
  const std::vector<double> metrics = data.uniform_vector(3, -1.0, 1.0);
  surrogate.observe(input, metrics);
  EXPECT_EQ(allocations_in([&] {
              for (int k = 0; k < 3; ++k) surrogate.observe(input, metrics);
            }),
            0u);
}

}  // namespace
}  // namespace glova::rl
