// Tests for core::Campaign: sweep expansion, fair scheduling, the result
// table, aggregated observers, edge cases (empty campaign, failing session,
// campaign-wide budget), and the checkpoint/resume parity pin — a campaign
// saved mid-run and resumed must produce bit-identical fixed-seed results to
// an uninterrupted run.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "circuits/registry.hpp"
#include "common/log.hpp"
#include "core/campaign.hpp"

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

/// The sweep pinned by the parity tests: all three algorithms, two GLOVA
/// seeds, SAL behavioral, corner verification — small enough to run in
/// seconds, diverse enough to cover every session implementation.
core::SweepSpec parity_sweep() {
  core::SweepSpec sweep;
  sweep.base.testcase = circuits::Testcase::Sal;
  sweep.base.method = core::VerifMethod::C;
  sweep.base.max_iterations = 120;
  sweep.algorithms = core::all_algorithms();
  sweep.seeds = {1, 2};
  return sweep;
}

TEST(SweepSpec, ExpandsTheCartesianProductInTableOrder) {
  core::SweepSpec sweep;
  sweep.base.max_iterations = 50;
  sweep.testcases = {circuits::Testcase::Sal, circuits::Testcase::Fia};
  sweep.algorithms = {core::Algorithm::Glova, core::Algorithm::PvtSizing};
  sweep.methods = {core::VerifMethod::C};
  sweep.seeds = {7, 8, 9};
  const auto specs = sweep.expand();
  ASSERT_EQ(specs.size(), 2u * 2u * 1u * 3u);
  // testcase-major, seed-minor: first three specs share (SAL, Glova, C).
  EXPECT_EQ(specs[0].seed, 7u);
  EXPECT_EQ(specs[1].seed, 8u);
  EXPECT_EQ(specs[2].seed, 9u);
  EXPECT_EQ(specs[0].testcase, circuits::Testcase::Sal);
  EXPECT_EQ(specs[3].algorithm, core::Algorithm::PvtSizing);
  EXPECT_EQ(specs[6].testcase, circuits::Testcase::Fia);
  // Non-axis fields are copied from the base.
  for (const auto& spec : specs) EXPECT_EQ(spec.max_iterations, 50u);
}

TEST(SweepSpec, EmptyAxesDefaultToTheBaseSpec) {
  core::SweepSpec sweep;
  sweep.base.seed = 42;
  const auto specs = sweep.expand();
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0], sweep.base);
}

TEST(Campaign, EmptyCampaignIsTriviallyDone) {
  core::Campaign campaign(std::vector<core::RunSpec>{});
  EXPECT_TRUE(campaign.done());
  EXPECT_FALSE(campaign.step());
  EXPECT_EQ(campaign.session_count(), 0u);
  EXPECT_EQ(campaign.sessions_remaining(), 0u);
  const auto& table = campaign.run();
  EXPECT_TRUE(table.entries.empty());
  EXPECT_EQ(table.total_simulations, 0u);

  // An empty campaign round-trips through the checkpoint format too.
  std::stringstream ss;
  campaign.save(ss);
  core::Campaign loaded = core::Campaign::load(ss);
  EXPECT_TRUE(loaded.done());
  EXPECT_TRUE(loaded.run().entries.empty());
}

TEST(Campaign, ValidatesEverySpecUpFront) {
  core::RunSpec bad;
  bad.max_iterations = 0;  // fails RunSpec::validate()
  EXPECT_THROW(core::Campaign(std::vector<core::RunSpec>{bad}), std::invalid_argument);
}

TEST(Campaign, ResultThrowsWhileSessionsAreLive) {
  set_log_level(LogLevel::Warn);
  core::SweepSpec sweep = parity_sweep();
  sweep.algorithms = {core::Algorithm::Glova};
  sweep.seeds = {1};
  core::Campaign campaign(sweep);
  EXPECT_THROW((void)campaign.result(), std::logic_error);
  EXPECT_TRUE(campaign.step());
  EXPECT_THROW((void)campaign.result(), std::logic_error);
  (void)campaign.run();
  EXPECT_NO_THROW((void)campaign.result());
}

TEST(Campaign, RunsAWholeSweepAndKeysTheTableBySpec) {
  set_log_level(LogLevel::Warn);
  const core::SweepSpec sweep = parity_sweep();
  core::Campaign campaign(sweep);
  EXPECT_EQ(campaign.session_count(), 6u);
  const core::CampaignResult& table = campaign.run();
  EXPECT_TRUE(campaign.done());
  ASSERT_EQ(table.entries.size(), 6u);
  EXPECT_EQ(table.finished, 6u);
  EXPECT_EQ(table.failed, 0u);
  EXPECT_GT(table.total_simulations, 0u);
  for (const auto& entry : table.entries) {
    EXPECT_EQ(entry.state, core::SessionState::Finished);
    EXPECT_GT(entry.steps, 0u);
    EXPECT_FALSE(entry.result.termination.empty());
    EXPECT_EQ(entry.result.n_simulations,
              entry.result.n_simulations_executed + entry.result.n_cache_hits);
  }
  // find() keys the table by spec value.
  const auto specs = sweep.expand();
  const core::CampaignEntry* found = table.find(specs[3]);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->spec, specs[3]);
  core::RunSpec missing = specs[0];
  missing.seed = 999;
  EXPECT_EQ(table.find(missing), nullptr);
}

TEST(Campaign, MatchesStandaloneSessionResults) {
  // Campaign scheduling (shared testbench, interleaved stepping) must not
  // change any session's numbers vs. a standalone make_optimizer run.
  set_log_level(LogLevel::Warn);
  core::SweepSpec sweep = parity_sweep();
  sweep.algorithms = {core::Algorithm::Glova};
  sweep.seeds = {1};
  core::Campaign campaign(sweep);
  const auto& table = campaign.run();
  ASSERT_EQ(table.entries.size(), 1u);
  const auto standalone = core::make_optimizer(sweep.expand()[0])->run();
  expect_identical_results(table.entries[0].result, standalone);
}

// ---------------------------------------------------------------------------
// Checkpoint / resume

TEST(CampaignCheckpoint, SaveResumeMatchesStraightThroughBitIdentically) {
  set_log_level(LogLevel::Warn);
  const core::SweepSpec sweep = parity_sweep();

  // Straight-through reference run.
  core::Campaign reference(sweep);
  const core::CampaignResult ref_table = reference.run();

  // Checkpoint once early (most sessions pending) and once late (some
  // finished, some mid-flight), then resume each and compare.
  core::Campaign driver(sweep);
  std::stringstream early;
  std::stringstream late;
  int turns = 0;
  while (driver.step()) {
    ++turns;
    if (turns == 2) driver.save(early);
    if (turns == 40) driver.save(late);
  }
  ASSERT_GT(turns, 40) << "sweep finished before the late checkpoint; grow the sweep";
  expect_identical_tables(driver.result(), ref_table);

  core::Campaign resumed_early = core::Campaign::load(early);
  EXPECT_FALSE(resumed_early.done());
  expect_identical_tables(resumed_early.run(), ref_table);

  core::Campaign resumed_late = core::Campaign::load(late);
  expect_identical_tables(resumed_late.run(), ref_table);
}

TEST(CampaignCheckpoint, SavedTextRoundTripsThroughSaveAgain) {
  set_log_level(LogLevel::Warn);
  core::SweepSpec sweep = parity_sweep();
  sweep.algorithms = {core::Algorithm::Glova};
  core::Campaign campaign(sweep);
  for (int i = 0; i < 3; ++i) campaign.step();
  std::stringstream first;
  campaign.save(first);
  const std::string text = first.str();

  // load() then save() again reproduces the identical checkpoint: the
  // restored sessions land on the same cursor/steps/results.
  std::stringstream in(text);
  core::Campaign loaded = core::Campaign::load(in);
  std::stringstream second;
  loaded.save(second);
  EXPECT_EQ(second.str(), text);
}

/// The message Campaign::load throws for `text` ("" when it loads).
std::string load_error(const std::string& text) {
  std::stringstream ss(text);
  try {
    (void)core::Campaign::load(ss);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

/// Current-version header through the `sessions` line.
std::string checkpoint_head(const std::string& sessions) {
  return "glova-campaign v4\nmax_total_simulations 0\nsteps_per_turn 1\ncache_dir \ncursor 0\n"
         "sessions " + sessions + "\n";
}

TEST(CampaignCheckpoint, RejectsGarbageAndWrongVersions) {
  EXPECT_NE(load_error("not a checkpoint\n").find("bad magic"), std::string::npos);
  // Only the current version loads; every other one fails at the header
  // with an error naming the version this build reads.
  for (const char* version : {"v1", "v2", "v3", "v999"}) {
    const std::string error =
        load_error(std::string("glova-campaign ") + version + "\nmax_total_simulations 0\n");
    EXPECT_NE(error.find(std::string("unsupported format version '") + version + "'"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("this build reads v4"), std::string::npos) << error;
  }
  // Truncated after the first field.
  EXPECT_NE(load_error("glova-campaign v4\nmax_total_simulations 0\n")
                .find("unexpected end of input, expected 'steps_per_turn'"),
            std::string::npos);
  // A corrupt count must fail as a malformed checkpoint, not as a gigantic
  // allocation.
  EXPECT_NE(load_error(checkpoint_head("9999999999999")).find("implausible session count"),
            std::string::npos);
}

TEST(CampaignCheckpoint, ResumeReplayMeansNotSteppedYet) {
  set_log_level(LogLevel::Warn);
  const auto running = [](int steps) {
    return checkpoint_head("1") + "session 0\nspec " + core::RunSpec{}.to_string() +
           "\nstate running\nsteps " + std::to_string(steps) +
           "\nretries 0\nresume replay\nend\n";
  };
  EXPECT_EQ(load_error(running(0)), "");
  // A session that has stepped is saved with its state; 'replay' after
  // steps > 0 is a malformed checkpoint, not a request to re-step it.
  const std::string error = load_error(running(3));
  EXPECT_NE(error.find("'resume replay' after 3 steps"), std::string::npos) << error;
}

TEST(CampaignCheckpoint, SaveFileAndLoadFileRoundTrip) {
  set_log_level(LogLevel::Warn);
  core::SweepSpec sweep = parity_sweep();
  sweep.algorithms = {core::Algorithm::Glova};
  sweep.seeds = {1};
  core::Campaign campaign(sweep);
  (void)campaign.run();
  const std::string path = ::testing::TempDir() + "glova_campaign_ckpt.txt";
  campaign.save_file(path);
  core::Campaign loaded = core::Campaign::load_file(path);
  expect_identical_tables(loaded.run(), campaign.result());
  EXPECT_THROW((void)core::Campaign::load_file(path + ".does-not-exist"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Edge cases: failing sessions, campaign-wide budget, observers

/// Testbench whose evaluations start throwing after a fuse burns (same probe
/// as the session tests, here to fail one campaign member mid-flight).
class FailingBench final : public circuits::Testbench {
 public:
  explicit FailingBench(int evaluations_until_failure) : fuse_(evaluations_until_failure) {
    sizing_.names = {"x0"};
    sizing_.lower = {0.0};
    sizing_.upper = {1.0};
    performance_.metrics = {
        circuits::MetricSpec{"m", "u", 1.0, 1.0, circuits::Sense::MinimizeBelow}};
  }
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const circuits::SizingSpec& sizing() const override { return sizing_; }
  [[nodiscard]] const circuits::PerformanceSpec& performance() const override {
    return performance_;
  }
  [[nodiscard]] pdk::MismatchLayout mismatch_layout(std::span<const double>,
                                                    bool) const override {
    return {};
  }
  [[nodiscard]] std::vector<double> evaluate(std::span<const double>, const pdk::PvtCorner&,
                                             std::span<const double>) const override {
    if (fuse_.fetch_sub(1) <= 0) throw std::runtime_error("simulator crashed");
    return {2.0};  // always failing the spec keeps the session running
  }

 private:
  std::string name_ = "failing-bench";
  circuits::SizingSpec sizing_;
  circuits::PerformanceSpec performance_;
  mutable std::atomic<int> fuse_;
};

TEST(Campaign, OneFailingSessionDoesNotStopTheOthers) {
  set_log_level(LogLevel::Warn);
  core::RunSpec failing;
  failing.seed = 1;
  failing.engine.cache_capacity = 0;  // every request reaches the bench
  failing.engine.parallelism = 1;     // deterministic fuse burn point
  core::RunSpec healthy;
  healthy.seed = 2;
  healthy.max_iterations = 120;

  core::CampaignConfig config;
  config.make_testbench = [](const core::RunSpec& spec) -> circuits::TestbenchPtr {
    if (spec.seed == 1) return std::make_shared<FailingBench>(400);
    return circuits::make_testbench(spec.testcase, spec.backend);
  };
  core::Campaign campaign({failing, healthy}, config);
  const core::CampaignResult& table = campaign.run();

  EXPECT_TRUE(campaign.done());
  ASSERT_EQ(table.entries.size(), 2u);
  EXPECT_EQ(table.failed, 1u);
  EXPECT_EQ(table.finished, 1u);

  const core::CampaignEntry& broken = table.entries[0];
  EXPECT_EQ(broken.state, core::SessionState::Failed);
  EXPECT_NE(broken.error.find("simulator crashed"), std::string::npos) << broken.error;
  EXPECT_EQ(broken.result.termination, "campaign-session-error");
  EXPECT_GT(broken.result.n_simulations, 0u);  // partial result is well-formed

  const core::CampaignEntry& ok = table.entries[1];
  EXPECT_EQ(ok.state, core::SessionState::Finished);
  EXPECT_TRUE(ok.result.success);
}

/// Deterministic wrapper that throws a plain runtime_error on exactly the
/// nth evaluate() call and forwards to the wrapped bench otherwise — a
/// transient fault: a rebuilt-and-replayed session sails past it because the
/// call counter has already burned through n.
class ThrowOnceBench final : public circuits::Testbench {
 public:
  ThrowOnceBench(circuits::TestbenchPtr inner, int nth) : inner_(std::move(inner)), nth_(nth) {}
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
    if (calls_.fetch_add(1) + 1 == nth_) throw std::runtime_error("transient evaluator glitch");
    return inner_->evaluate(x, corner, h);
  }

 private:
  circuits::TestbenchPtr inner_;
  int nth_;
  mutable std::atomic<int> calls_{0};
};

TEST(Campaign, SessionRetryReplaysThroughATransientThrow) {
  set_log_level(LogLevel::Warn);
  core::RunSpec spec;
  spec.testcase = circuits::Testcase::Sal;
  spec.max_iterations = 120;
  spec.engine.cache_capacity = 0;  // every request reaches the bench
  spec.engine.parallelism = 1;     // deterministic throw point

  // Reference: an uninterrupted run, and its evaluation count to place the
  // one-shot fault mid-session.
  core::Campaign reference(std::vector<core::RunSpec>{spec});
  const core::CampaignResult& ref_table = reference.run();
  ASSERT_EQ(ref_table.entries.size(), 1u);
  ASSERT_EQ(ref_table.entries[0].state, core::SessionState::Finished);
  const int nth = static_cast<int>(ref_table.entries[0].result.n_simulations / 2);
  ASSERT_GT(nth, 1);

  // One transient throw, one retry budgeted: the session is rebuilt,
  // replayed, and finishes bit-identically to the uninterrupted run.
  core::CampaignConfig config;
  config.max_session_retries = 2;
  const auto bench = std::make_shared<ThrowOnceBench>(
      circuits::make_testbench(spec.testcase, spec.backend), nth);
  config.make_testbench = [bench](const core::RunSpec&) -> circuits::TestbenchPtr {
    return bench;  // one shared instance: the replay must see the burnt fuse
  };
  core::Campaign campaign(std::vector<core::RunSpec>{spec}, config);
  const core::CampaignResult& table = campaign.run();
  ASSERT_EQ(table.entries.size(), 1u);
  EXPECT_EQ(table.entries[0].state, core::SessionState::Finished);
  EXPECT_EQ(table.entries[0].retries, 1u);
  EXPECT_EQ(table.session_retries, 1u);
  EXPECT_TRUE(table.entries[0].error.empty());
  expect_identical_results(table.entries[0].result, ref_table.entries[0].result);

  // With no retry budget the same fault is fatal (the legacy behavior).
  core::CampaignConfig none;
  const auto bench2 = std::make_shared<ThrowOnceBench>(
      circuits::make_testbench(spec.testcase, spec.backend), nth);
  none.make_testbench = [bench2](const core::RunSpec&) -> circuits::TestbenchPtr {
    return bench2;
  };
  core::Campaign fatal(std::vector<core::RunSpec>{spec}, none);
  const core::CampaignResult& fatal_table = fatal.run();
  EXPECT_EQ(fatal_table.entries[0].state, core::SessionState::Failed);
  EXPECT_EQ(fatal_table.entries[0].retries, 0u);
  EXPECT_NE(fatal_table.entries[0].error.find("transient evaluator glitch"), std::string::npos);
}

TEST(Campaign, DeterministicFailureExhaustsTheRetryBudget) {
  set_log_level(LogLevel::Warn);
  core::RunSpec spec;
  spec.engine.cache_capacity = 0;
  spec.engine.parallelism = 1;
  core::CampaignConfig config;
  config.max_session_retries = 2;
  // FailingBench's fuse burns permanently: every replay re-throws at the
  // same evaluation, so the retry budget drains and the session fails.
  config.make_testbench = [](const core::RunSpec&) -> circuits::TestbenchPtr {
    return std::make_shared<FailingBench>(400);
  };
  core::Campaign campaign(std::vector<core::RunSpec>{spec}, config);
  const core::CampaignResult& table = campaign.run();
  ASSERT_EQ(table.entries.size(), 1u);
  EXPECT_EQ(table.entries[0].state, core::SessionState::Failed);
  EXPECT_EQ(table.entries[0].retries, 2u);
  EXPECT_EQ(table.session_retries, 2u);
  EXPECT_NE(table.entries[0].error.find("simulator crashed"), std::string::npos);
}

TEST(CampaignCheckpoint, SaveFileSurvivesPartialWriteInjection) {
  set_log_level(LogLevel::Warn);
  core::SweepSpec sweep = parity_sweep();
  sweep.algorithms = {core::Algorithm::Glova};
  sweep.seeds = {1};
  core::Campaign campaign(sweep);
  (void)campaign.run();

  const std::string path = ::testing::TempDir() + "glova_campaign_atomic.txt";
  const std::string tmp = path + ".tmp";
  std::filesystem::remove(path);
  std::filesystem::remove_all(tmp);

  // A stale temp file from a crashed writer is simply overwritten.
  {
    std::ofstream garbage(tmp);
    garbage << "truncated-partial-write";
  }
  campaign.save_file(path);
  EXPECT_FALSE(std::filesystem::exists(tmp)) << "temp file must be renamed away";
  expect_identical_tables(core::Campaign::load_file(path).run(), campaign.result());

  // Injected write failure: the temp path is unopenable (a directory squats
  // on it), save_file throws — and the existing good checkpoint is intact.
  std::filesystem::create_directory(tmp);
  EXPECT_THROW(campaign.save_file(path), std::runtime_error);
  std::filesystem::remove_all(tmp);
  expect_identical_tables(core::Campaign::load_file(path).run(), campaign.result());

  // The file path writes exactly the save() bytes — the durable (fsync +
  // rename) route and the stream route are one serializer.
  std::stringstream expected;
  campaign.save(expected);
  std::ifstream written(path);
  std::stringstream on_disk;
  on_disk << written.rdbuf();
  EXPECT_EQ(on_disk.str(), expected.str());

  // Overwriting a good checkpoint with a newer one is atomic too: a
  // different campaign saved over the same path fully replaces it.
  core::SweepSpec newer_sweep = parity_sweep();
  newer_sweep.algorithms = {core::Algorithm::PvtSizing};
  newer_sweep.seeds = {2};
  core::Campaign newer(newer_sweep);
  (void)newer.run();
  newer.save_file(path);
  EXPECT_FALSE(std::filesystem::exists(tmp));
  expect_identical_tables(core::Campaign::load_file(path).run(), newer.result());
}

TEST(Campaign, WideSimulationBudgetStopsWithinOneTurn) {
  set_log_level(LogLevel::Warn);
  core::SweepSpec sweep = parity_sweep();
  sweep.algorithms = {core::Algorithm::Glova};
  sweep.seeds = {1, 2, 3};
  core::CampaignConfig config;
  config.max_total_simulations = 120;  // trips during the second session's init
  core::Campaign campaign(sweep, config);

  // Budget enforcement runs after every turn, so at the top of each turn the
  // campaign is either under the cap or already done.
  while (!campaign.done()) {
    EXPECT_LT(campaign.total_simulations(), config.max_total_simulations);
    campaign.step();
  }
  const core::CampaignResult& table = campaign.result();
  EXPECT_GE(table.total_simulations, config.max_total_simulations);
  ASSERT_EQ(table.entries.size(), 3u);
  std::size_t budget_stopped = 0;
  for (const auto& entry : table.entries) {
    EXPECT_EQ(entry.state, core::SessionState::Finished);
    budget_stopped += entry.result.termination == "campaign-simulation-budget" ? 1 : 0;
  }
  // The cap trips before the sweep can finish on its own: at least one
  // session (in fact the later ones) is cut off by the campaign budget.
  EXPECT_GE(budget_stopped, 1u);
}

TEST(Campaign, ObserversAggregateAcrossSessions) {
  set_log_level(LogLevel::Warn);

  class Counter final : public core::CampaignObserver {
   public:
    void on_session_start(std::size_t index, const core::RunSpec&) override {
      ++starts;
      last_started = index;
    }
    void on_iteration(std::size_t index, const core::RunSpec&, const core::IterationTrace&,
                      const core::EngineStats& stats) override {
      ++iterations;
      (void)index;
      last_requested = stats.requested;
    }
    void on_session_finish(std::size_t index, const core::RunSpec&,
                           const core::GlovaResult&) override {
      ++finishes;
      last_finished = index;
    }
    int starts = 0;
    int iterations = 0;
    int finishes = 0;
    std::size_t last_started = 0;
    std::size_t last_finished = 0;
    std::uint64_t last_requested = 0;
  };

  core::SweepSpec sweep = parity_sweep();
  sweep.algorithms = {core::Algorithm::Glova};
  sweep.seeds = {1, 2};
  core::Campaign campaign(sweep);
  const auto counter = std::make_shared<Counter>();
  campaign.add_observer(counter);
  const auto& table = campaign.run();

  EXPECT_EQ(counter->starts, 2);
  EXPECT_EQ(counter->finishes, 2);
  std::size_t total_steps = 0;
  for (const auto& entry : table.entries) total_steps += entry.steps;
  EXPECT_EQ(counter->iterations, static_cast<int>(total_steps));
  EXPECT_GT(counter->last_requested, 0u);
}

}  // namespace
}  // namespace glova
