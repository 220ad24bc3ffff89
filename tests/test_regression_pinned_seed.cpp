// Pinned-seed regression table (ROADMAP ask): fixed-seed GlovaOptimizer runs
// must request exactly the recorded number of simulations, with the recorded
// cache behavior, and the SPICE StrongARM testbench must reproduce the
// recorded circuit metrics.  This is the guard rail for every evaluation-
// stack change: a refactor that alters optimizer control flow, cache keys,
// or solver results shows up here before it ships.
//
// Re-recording (only when an intentional behavior change is made): build,
// then run this binary with --gtest_also_run_disabled_tests removed and
// copy the values printed by a failing expectation — or rerun the
// bench-point probe documented in README.md — into the tables below.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <vector>

#include "circuits/registry.hpp"
#include "circuits/spice_backend.hpp"
#include "common/log.hpp"
#include "core/optimizer.hpp"

namespace glova {
namespace {

struct PinnedRun {
  circuits::Testcase testcase;
  core::VerifMethod method;
  std::uint64_t seed;
  std::size_t max_iterations;
  // Recorded reference values (git main, seed toolchain).
  std::uint64_t n_simulations;
  std::uint64_t n_executed;
  std::uint64_t n_cache_hits;
  std::size_t rl_iterations;
  const char* termination;
};

// The paper's "# Simulation" column semantics: requested = executed + hits.
constexpr PinnedRun kPinnedRuns[] = {
    {circuits::Testcase::Sal, core::VerifMethod::C, 1, 200, 100, 99, 1, 15, "verified"},
    {circuits::Testcase::Sal, core::VerifMethod::C_MCGL, 7, 60, 6199, 6199, 0, 39, "verified"},
    // OCSA and FIA rows re-recorded when the behavioral gm estimates moved
    // from the 2*I/max(Vov, 1e-4) strong-inversion identity to the analytic
    // pdk::ekv_gm derivative (the optimizer sees different metric surfaces,
    // so its fixed-seed trajectory legitimately changes).
    {circuits::Testcase::DramOcsa, core::VerifMethod::C_MCL, 3, 60, 3151, 3151, 0, 2, "verified"},
    {circuits::Testcase::Fia, core::VerifMethod::C, 5, 120, 96, 95, 1, 4, "verified"},
};

TEST(PinnedSeedRegression, SimulationCountsMatchReferenceTable) {
  set_log_level(LogLevel::Warn);
  for (const PinnedRun& run : kPinnedRuns) {
    core::GlovaConfig cfg;
    cfg.method = run.method;
    cfg.seed = run.seed;
    cfg.max_iterations = run.max_iterations;
    core::GlovaOptimizer opt(circuits::make_testbench(run.testcase), cfg);
    const core::GlovaResult res = opt.run();
    const std::string label = std::string(circuits::to_string(run.testcase)) + "/" +
                              core::to_string(run.method) + "/seed" +
                              std::to_string(run.seed);
    EXPECT_EQ(res.n_simulations, run.n_simulations) << label;
    EXPECT_EQ(res.n_simulations_executed, run.n_executed) << label;
    EXPECT_EQ(res.n_cache_hits, run.n_cache_hits) << label;
    EXPECT_EQ(res.rl_iterations, run.rl_iterations) << label;
    EXPECT_EQ(res.termination, run.termination) << label;
  }
}

// SPICE metrics at fixed sizing points, one row per testcase netlist.  The
// SAL row was recorded on git main before the stamp-plan/warm-start
// rewrite; the FIA and OCSA+SH rows were recorded when their netlists
// landed (ISSUE 5).  The compiled-plan assembler, the fused LU kernel, the
// pinned-source absorption, and the netlist construction itself must
// reproduce them to within Newton's voltage tolerance (measured deviation:
// ~2e-13 relative).  Warm start is disabled so the check is independent of
// cache state.
//
// Re-recording (only for an intentional solver/netlist change): run this
// binary, copy the "actual" values from the failing EXPECT_NEAR output —
// or print them at max_digits10 with a one-off probe against
// circuits::make_testbench(tc, Backend::Spice) — into kSpiceBaselines, and
// note the change in bench/BENCH_spice.json's context.note.
struct SpiceBaseline {
  circuits::Testcase testcase;
  std::vector<double> x01;
  std::vector<double> metrics;
};

const SpiceBaseline kSpiceBaselines[] = {
    {circuits::Testcase::Sal,
     {0.2, 0.3, 0.2, 0.2, 0.2, 0.1, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.05, 0.01},
     {
         // Re-recorded when SalConditions::input_cm_frac returned to the
         // paper's mid-rail testbench (the 0.7*vdd bias was a Level-1
         // cutoff crutch; see SalConditions).
         1.07752996735812805e-05,  // power [W]
         5.11384451347077711e-10,  // set delay [s]
         1.11129848615213381e-10,  // reset delay [s]
         9.12987598746986783e-05,  // input noise [V]
     }},
    {circuits::Testcase::Fia,
     {0.05, 0.25, 0.5, 0.3, 0.003, 0.001},
     {
         4.80820605355794003e-14,  // energy per conversion [J]
         // Noise re-recorded with the behavioral gm estimate moved to the
         // analytic pdk::ekv_gm derivative (thermal + latch-referral terms
         // shift slightly at this bias).
         8.04802882424353610e-04,  // input-referred noise [V]
     }},
    {circuits::Testcase::DramOcsa,
     {1.0, 1.0, 1.0, 0.0, 0.0, 0.3, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0},
     {
         1.13709493220082503e-01,  // dVD0 [V]
         1.42651524570952482e-01,  // dVD1 [V]
         1.02392190707012904e-14,  // energy per bit [J]
     }},
};

TEST(PinnedSeedRegression, SpiceMetricsMatchRecordedBaselines) {
  // Direct calls run the cold defaults (no warm start), the recorded setting.
  std::vector<std::vector<double>> measured;
  for (const SpiceBaseline& row : kSpiceBaselines) {
    const auto tb = circuits::make_testbench(row.testcase, circuits::Backend::Spice);
    const auto x = tb->sizing().denormalize(row.x01);
    measured.push_back(tb->evaluate(x, pdk::typical_corner(), {}));
  }

  for (std::size_t ri = 0; ri < std::size(kSpiceBaselines); ++ri) {
    const SpiceBaseline& row = kSpiceBaselines[ri];
    const auto& m = measured[ri];
    ASSERT_EQ(m.size(), row.metrics.size()) << circuits::to_string(row.testcase);
    for (std::size_t i = 0; i < m.size(); ++i) {
      EXPECT_NEAR(m[i], row.metrics[i], std::abs(row.metrics[i]) * 1e-6)
          << circuits::to_string(row.testcase) << " metric " << i;
    }
  }
}

}  // namespace
}  // namespace glova
