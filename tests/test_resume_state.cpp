// Replay-free resume: every algorithm serializes its full session state
// (Optimizer::save_state / load_state), a restored session continues
// bit-identically from any checkpoint, and Campaign::load restores
// checkpoints with zero optimizer step() replays (and zero evaluations).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuits/registry.hpp"
#include "common/log.hpp"
#include "core/campaign.hpp"
#include "core/run_spec.hpp"

namespace glova {
namespace {

/// Every deterministic field of two results must match bit-for-bit
/// (wall_seconds is timing and is deliberately excluded).
void expect_identical_results(const core::GlovaResult& a, const core::GlovaResult& b) {
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.rl_iterations, b.rl_iterations);
  EXPECT_EQ(a.n_simulations, b.n_simulations);
  EXPECT_EQ(a.n_simulations_executed, b.n_simulations_executed);
  EXPECT_EQ(a.n_cache_hits, b.n_cache_hits);
  EXPECT_EQ(a.engine_stats.requested, b.engine_stats.requested);
  EXPECT_EQ(a.engine_stats.executed, b.engine_stats.executed);
  EXPECT_EQ(a.engine_stats.cache_hits, b.engine_stats.cache_hits);
  EXPECT_EQ(a.turbo_evaluations, b.turbo_evaluations);
  EXPECT_EQ(a.x01_final, b.x01_final);
  EXPECT_EQ(a.x_phys_final, b.x_phys_final);
  EXPECT_EQ(a.termination, b.termination);
  EXPECT_DOUBLE_EQ(a.modeled_runtime, b.modeled_runtime);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].iteration, b.trace[i].iteration);
    EXPECT_DOUBLE_EQ(a.trace[i].reward_worst, b.trace[i].reward_worst);
    EXPECT_DOUBLE_EQ(a.trace[i].critic_mean, b.trace[i].critic_mean);
    EXPECT_DOUBLE_EQ(a.trace[i].critic_bound, b.trace[i].critic_bound);
    EXPECT_EQ(a.trace[i].mu_sigma_pass, b.trace[i].mu_sigma_pass);
    EXPECT_EQ(a.trace[i].attempted_verification, b.trace[i].attempted_verification);
    EXPECT_EQ(a.trace[i].sims_total, b.trace[i].sims_total);
  }
}

void expect_identical_tables(const core::CampaignResult& a, const core::CampaignResult& b) {
  EXPECT_EQ(a.total_simulations, b.total_simulations);
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.failed, b.failed);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].spec, b.entries[i].spec) << "entry " << i;
    EXPECT_EQ(a.entries[i].state, b.entries[i].state) << "entry " << i;
    EXPECT_EQ(a.entries[i].steps, b.entries[i].steps) << "entry " << i;
    EXPECT_EQ(a.entries[i].error, b.entries[i].error) << "entry " << i;
    expect_identical_results(a.entries[i].result, b.entries[i].result);
  }
}

core::RunSpec parity_spec(core::Algorithm algorithm) {
  core::RunSpec spec;
  spec.testcase = circuits::Testcase::Sal;
  spec.method = core::VerifMethod::C;
  spec.algorithm = algorithm;
  spec.max_iterations = 120;
  spec.seed = 1;
  return spec;
}

/// The sweep the campaign-level tests use: all three algorithms, one seed,
/// SAL behavioral — small enough to run in seconds, diverse enough to cover
/// every session implementation's state codec.
core::SweepSpec parity_sweep() {
  core::SweepSpec sweep;
  sweep.base = parity_spec(core::Algorithm::Glova);
  sweep.algorithms = core::all_algorithms();
  sweep.seeds = {1};
  return sweep;
}

/// Forwarding testbench that counts evaluate() calls through a shared
/// counter — the probe behind the O(1)-load pin: zero evaluations during
/// Campaign::load means zero replayed optimizer steps.
class CountingBench final : public circuits::Testbench {
 public:
  CountingBench(circuits::TestbenchPtr inner, std::shared_ptr<std::atomic<std::uint64_t>> count)
      : inner_(std::move(inner)), count_(std::move(count)) {}

  [[nodiscard]] const std::string& name() const override { return inner_->name(); }
  [[nodiscard]] const circuits::SizingSpec& sizing() const override { return inner_->sizing(); }
  [[nodiscard]] const circuits::PerformanceSpec& performance() const override {
    return inner_->performance();
  }
  [[nodiscard]] pdk::MismatchLayout mismatch_layout(std::span<const double> x,
                                                    bool global_enabled) const override {
    return inner_->mismatch_layout(x, global_enabled);
  }
  [[nodiscard]] std::vector<double> evaluate(std::span<const double> x,
                                             const pdk::PvtCorner& corner,
                                             std::span<const double> h) const override {
    count_->fetch_add(1, std::memory_order_relaxed);
    return inner_->evaluate(x, corner, h);
  }

 private:
  circuits::TestbenchPtr inner_;
  std::shared_ptr<std::atomic<std::uint64_t>> count_;
};

TEST(ResumeState, SaveAndLoadEnforceTheSessionProtocol) {
  set_log_level(LogLevel::Warn);
  const core::RunSpec spec = parity_spec(core::Algorithm::Glova);

  // A fresh session has no state to save: it is captured by its spec.
  {
    const auto fresh = core::make_optimizer(spec);
    std::ostringstream os;
    EXPECT_THROW(fresh->save_state(os), std::logic_error);
  }

  // Capture a valid mid-run state for the load-side checks.
  std::string saved;
  {
    const auto driver = core::make_optimizer(spec);
    driver->step();
    std::ostringstream os;
    driver->save_state(os);
    saved = os.str();

    // load_state() must land on a fresh session, not one already stepped.
    std::istringstream is(saved);
    EXPECT_THROW(driver->load_state(is), std::logic_error);
  }

  // A finished session is captured by its result, not by live state.
  {
    const auto finished = core::make_optimizer(spec);
    (void)finished->run();
    std::ostringstream os;
    EXPECT_THROW(finished->save_state(os), std::logic_error);
  }

  // Malformed state is a runtime error, not a crash or a silent accept.
  {
    const auto fresh = core::make_optimizer(spec);
    std::istringstream is("optimizer-state v1 glova\n");
    EXPECT_THROW(fresh->load_state(is), std::runtime_error);
  }

  // State is algorithm-tagged: feeding one algorithm's state to another must
  // be rejected (the header names the algorithm).
  {
    const auto other = core::make_optimizer(parity_spec(core::Algorithm::PvtSizing));
    std::istringstream is(saved);
    EXPECT_THROW(other->load_state(is), std::runtime_error);
  }
}

/// The core parity pin, for one spec: a session saved after k steps and
/// restored into a fresh session finishes bit-identically to an
/// uninterrupted run — at an early, a mid-run, and a late checkpoint.  The
/// restored session must also re-save to the exact same bytes (state fixed
/// point), and saving must not perturb the original session.
void check_resume_parity(const core::RunSpec& spec) {
  set_log_level(LogLevel::Warn);

  const core::GlovaResult reference = core::make_optimizer(spec)->run();
  const std::size_t total = reference.rl_iterations;
  ASSERT_GE(total, 3u) << "session too short to place three distinct checkpoints";

  std::set<std::size_t> checkpoints = {1, total / 2, total - 1};
  for (const std::size_t k : checkpoints) {
    if (k == 0 || k >= total) continue;
    SCOPED_TRACE(std::string(core::to_string(spec.algorithm)) + " checkpoint at step " +
                 std::to_string(k) + " of " + std::to_string(total));

    const auto driver = core::make_optimizer(spec);
    while (!driver->done() && driver->iterations_completed() < k) driver->step();
    ASSERT_FALSE(driver->done());

    std::ostringstream state;
    driver->save_state(state);
    const std::string saved = state.str();

    // Restore into a fresh session; re-saving must reproduce the bytes.
    const auto resumed = core::make_optimizer(spec);
    {
      std::istringstream is(saved);
      resumed->load_state(is);
    }
    EXPECT_EQ(resumed->iterations_completed(), k);
    std::ostringstream resaved;
    resumed->save_state(resaved);
    EXPECT_EQ(resaved.str(), saved) << "state must be a byte fixed point";

    // save_state() is const: the original session still finishes right.
    while (!driver->done()) driver->step();
    expect_identical_results(driver->result(), reference);

    // And the resumed session continues bit-identically.
    while (!resumed->done()) resumed->step();
    expect_identical_results(resumed->result(), reference);
  }
}

TEST(ResumeState, GlovaResumesBitIdentically) {
  check_resume_parity(parity_spec(core::Algorithm::Glova));
}

TEST(ResumeState, GlovaResumesBitIdenticallyOnSpice) {
  // Every SPICE evaluation is a cold solve, so a SPICE-backed session
  // resumes bit-identically under the default engine config too.
  core::RunSpec spec = parity_spec(core::Algorithm::Glova);
  spec.backend = circuits::Backend::Spice;
  spec.max_iterations = 6;
  check_resume_parity(spec);
}

TEST(ResumeState, PvtSizingResumesBitIdentically) {
  check_resume_parity(parity_spec(core::Algorithm::PvtSizing));
}

TEST(ResumeState, RobustAnalogResumesBitIdentically) {
  check_resume_parity(parity_spec(core::Algorithm::RobustAnalog));
}

TEST(ResumeState, CampaignLoadPerformsZeroEvaluations) {
  set_log_level(LogLevel::Warn);
  const auto count = std::make_shared<std::atomic<std::uint64_t>>(0);
  const auto factory = [count](const core::RunSpec& spec) -> circuits::TestbenchPtr {
    return std::make_shared<CountingBench>(
        circuits::make_testbench(spec.testcase, spec.backend), count);
  };

  core::CampaignConfig config;
  config.make_testbench = factory;
  core::Campaign campaign(parity_sweep(), config);

  // Three sessions, steps_per_turn 1: nine turns give every session three
  // steps, so each one is Running with serialized state in the checkpoint.
  for (int i = 0; i < 9 && !campaign.done(); ++i) campaign.step();
  ASSERT_FALSE(campaign.done());

  std::stringstream checkpoint;
  campaign.save(checkpoint);
  const std::string text = checkpoint.str();
  EXPECT_EQ(text.find("resume replay"), std::string::npos)
      << "every in-flight session must be on the replay-free state path";
  EXPECT_NE(text.find("resume state"), std::string::npos);

  // The acceptance pin: load() restores in-flight sessions O(1) — zero
  // optimizer step() replays, observable as zero testbench evaluations.
  const std::uint64_t before = count->load();
  core::Campaign loaded = core::Campaign::load(checkpoint, factory);
  EXPECT_EQ(count->load(), before)
      << "Campaign::load must not evaluate (replay) when restoring session state";

  // Both campaigns finish bit-identically from here.
  expect_identical_tables(loaded.run(), campaign.run());
}

TEST(ResumeState, UnknownCheckpointVersionIsRejected) {
  std::istringstream is("glova-campaign v999\n");
  EXPECT_THROW((void)core::Campaign::load(is), std::runtime_error);
}

}  // namespace
}  // namespace glova
