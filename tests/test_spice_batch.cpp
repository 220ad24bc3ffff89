// Batched mismatch-draw evaluator tests: BatchSimulator congruence checking,
// bit-identity of the batched backend paths against the sequential reference
// (default options), tolerance bands for the LTE-adaptive variant,
// warm-start cache accounting, and the evaluation
// engine's draw-group routing with memo-cache composition.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "backend_parity_grid.hpp"
#include "circuits/registry.hpp"
#include "common/rng.hpp"
#include "core/evaluation_engine.hpp"
#include "pdk/corner.hpp"
#include "pdk/variation.hpp"
#include "spice/batch.hpp"
#include "spice/circuit.hpp"
#include "spice/counters.hpp"
#include "spice/simulator.hpp"
#include "spice/warm_start.hpp"
#include "spice_test_context.hpp"

namespace glova::spice {
namespace {

circuits::Testcase testcase_for(int index) {
  switch (index) {
    case 0: return circuits::Testcase::Sal;
    case 1: return circuits::Testcase::Fia;
    default: return circuits::Testcase::DramOcsa;
  }
}

/// A nominal lane plus `count` deterministic local draws of one design.
std::vector<std::vector<double>> draw_group(const circuits::Testbench& tb,
                                            std::span<const double> x, std::size_t count,
                                            std::uint64_t seed) {
  Rng rng(seed);
  const auto layout = tb.mismatch_layout(x, false);
  auto hs = pdk::sample_mismatch_set(layout, count, rng, pdk::GlobalMode::Zero);
  hs.insert(hs.begin(), std::vector<double>{});
  return hs;
}

/// The warm-start context with one option flipped.
EvalContext warm_with(bool SimulatorOptions::*option) {
  EvalContext context = warm_context();
  context.options.*option = true;
  return context;
}

TEST(BatchSimulator, RejectsNonCongruentLanes) {
  Circuit a;
  const auto n1 = a.node("n1");
  a.add_vsource("V1", n1, Circuit::ground(), Waveform::dc(1.0));
  a.add_resistor("R1", n1, Circuit::ground(), 1e3);

  // Values may differ between lanes; structure may not.
  Circuit same = a;
  Circuit extra = a;
  extra.add_capacitor("C1", n1, Circuit::ground(), 1e-15);

  std::vector<Circuit> ok_lanes;
  ok_lanes.push_back(a);
  ok_lanes.push_back(same);
  EXPECT_NO_THROW(BatchSimulator{ok_lanes});

  std::vector<Circuit> bad_lanes;
  bad_lanes.push_back(a);
  bad_lanes.push_back(extra);
  EXPECT_THROW(BatchSimulator{bad_lanes}, std::invalid_argument);
}

class BatchedDrawParity : public ::testing::TestWithParam<int> {};

// With adaptive stepping off, the batched path promises
// *bit-identical* metrics: per lane the Newton arithmetic is the scalar
// simulator's, and the internal rolling DC seed reproduces the sequential
// warm-start cache exactly.
TEST_P(BatchedDrawParity, BitIdenticalToSequentialWithDefaultOptions) {
  const circuits::Testcase tc = testcase_for(GetParam());
  const auto tb = circuits::make_testbench(tc, circuits::Backend::Spice);
  const ScopedTestContext warm;

  const auto designs = parity_grid::designs_x01(tc);
  const auto corners = parity_grid::corners();
  for (std::size_t d = 0; d < designs.size(); ++d) {
    const auto x = tb->sizing().denormalize(designs[d]);
    const auto hs = draw_group(*tb, x, 3, 100 + d);
    for (std::size_t c = 0; c < corners.size(); ++c) {
      thread_local_dc_cache().clear();
      std::vector<std::vector<double>> seq;
      for (const auto& h : hs) seq.push_back(tb->evaluate(x, corners[c], h));

      thread_local_dc_cache().clear();
      const auto bat = tb->evaluate_draws(x, corners[c], hs);

      ASSERT_EQ(bat.size(), seq.size());
      for (std::size_t i = 0; i < seq.size(); ++i) {
        ASSERT_EQ(bat[i].size(), seq[i].size());
        for (std::size_t mi = 0; mi < seq[i].size(); ++mi) {
          EXPECT_EQ(bat[i][mi], seq[i][mi])
              << circuits::to_string(tc) << " design " << d << " corner " << c << " draw " << i
              << " metric " << mi;
        }
      }
    }
  }
}

// With LTE-adaptive stepping the grids differ, so metrics agree only within
// the controller's truncation-error tolerance.  The 3% band is ~4x the worst
// deviation observed across the parity grid (see docs/architecture.md).
TEST_P(BatchedDrawParity, AdaptiveTimestepStaysWithinToleranceBand) {
  const circuits::Testcase tc = testcase_for(GetParam());
  const auto tb = circuits::make_testbench(tc, circuits::Backend::Spice);
  const ScopedTestContext warm;

  const auto designs = parity_grid::designs_x01(tc);
  const auto corners = parity_grid::corners();
  for (std::size_t d = 0; d < 2; ++d) {  // two designs bound the runtime
    const auto x = tb->sizing().denormalize(designs[d]);
    const auto hs = draw_group(*tb, x, 2, 100 + d);
    for (std::size_t c = 0; c < corners.size(); ++c) {
      thread_local_dc_cache().clear();
      std::vector<std::vector<double>> ref;
      for (const auto& h : hs) ref.push_back(tb->evaluate(x, corners[c], h));

      thread_local_dc_cache().clear();
      const auto bat = [&] {
        const ScopedTestContext adaptive(warm_with(&SimulatorOptions::adaptive_timestep));
        return tb->evaluate_draws(x, corners[c], hs);
      }();

      ASSERT_EQ(bat.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        for (std::size_t mi = 0; mi < ref[i].size(); ++mi) {
          EXPECT_NEAR(bat[i][mi], ref[i][mi], 0.03 * std::abs(ref[i][mi]) + 1e-12)
              << circuits::to_string(tc) << " design " << d << " corner " << c << " draw " << i
              << " metric " << mi;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTestcases, BatchedDrawParity, ::testing::Range(0, 3));

// One group lookup plus internal seed rolling must report the same
// hit/miss/store totals the sequential per-draw path would.
TEST(BatchedDraws, WarmStartAccountingMatchesSequentialSemantics) {
  const auto tb = circuits::make_testbench(circuits::Testcase::Sal, circuits::Backend::Spice);
  const ScopedTestContext warm;
  const auto x = tb->sizing().denormalize(parity_grid::designs_x01(circuits::Testcase::Sal)[0]);
  const auto hs = draw_group(*tb, x, 3, 11);  // 4 lanes
  const pdk::PvtCorner corner = pdk::typical_corner();

  // Cold cache: the group lookup misses, lane 0 cold-solves and stores, the
  // three remaining lanes warm-start off the rolling seed (credited hits).
  thread_local_dc_cache().clear();
  (void)tb->evaluate_draws(x, corner, hs);
  WarmStartStats s = warm.sink().warm();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.stores, 1u);
  EXPECT_EQ(s.hits, 3u);

  // Warm cache: the group lookup hits, every lane warm-starts — exactly the
  // four hits four sequential lookups would have counted, and no store.
  const ScopedTestContext again;
  (void)tb->evaluate_draws(x, corner, hs);
  s = again.sink().warm();
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.stores, 0u);
  EXPECT_EQ(s.hits, 4u);
}

// EngineConfig::batched_draws routes the misses of one evaluate_batch call
// through the testbench's batched evaluator; memoization composes and the
// new EngineStats counters surface the activity.
TEST(BatchedDraws, EngineRoutesDrawGroupsAndComposesWithMemoCache) {
  const auto tb = circuits::make_testbench(circuits::Testcase::Sal, circuits::Backend::Spice);
  const auto x = tb->sizing().denormalize(parity_grid::designs_x01(circuits::Testcase::Sal)[0]);
  Rng rng(13);
  const auto layout = tb->mismatch_layout(x, false);
  const auto hs = pdk::sample_mismatch_set(layout, 3, rng, pdk::GlobalMode::Zero);
  const pdk::PvtCorner corner = pdk::typical_corner();

  core::EngineConfig seq_cfg;
  seq_cfg.parallelism = 1;
  seq_cfg.min_parallel_batch = 1000;  // keep the sequential path inline
  core::EngineConfig bat_cfg = seq_cfg;
  bat_cfg.batched_draws = true;

  thread_local_dc_cache().clear();
  core::EvaluationEngine seq_engine(tb, seq_cfg);
  const auto seq = seq_engine.evaluate_batch(x, corner, hs);
  EXPECT_EQ(seq_engine.stats().batch_groups, 0u);

  thread_local_dc_cache().clear();
  core::EvaluationEngine bat_engine(tb, bat_cfg);
  const auto bat = bat_engine.evaluate_batch(x, corner, hs);
  ASSERT_EQ(bat.size(), seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    for (std::size_t mi = 0; mi < seq[i].size(); ++mi) {
      EXPECT_EQ(bat[i][mi], seq[i][mi]) << "draw " << i << " metric " << mi;
    }
  }
  core::EngineStats stats = bat_engine.stats();
  EXPECT_EQ(stats.requested, 3u);
  EXPECT_EQ(stats.executed, 3u);
  EXPECT_EQ(stats.batch_groups, 1u);
  EXPECT_EQ(stats.batch_lanes, 3u);

  // The memo cache answers the repeat; no second group runs.
  const auto again = bat_engine.evaluate_batch(x, corner, hs);
  EXPECT_EQ(again, bat);
  stats = bat_engine.stats();
  EXPECT_EQ(stats.requested, 6u);
  EXPECT_EQ(stats.cache_hits, 3u);
  EXPECT_EQ(stats.executed, 3u);
  EXPECT_EQ(stats.batch_groups, 1u);

  // A single-miss group is not worth a batch: it runs through the scalar
  // path and the group counter stays put.
  const auto h_extra =
      pdk::sample_mismatch_set(layout, 1, rng, pdk::GlobalMode::Zero);
  (void)bat_engine.evaluate_batch(x, corner, h_extra);
  EXPECT_EQ(bat_engine.stats().batch_groups, 1u);
}

}  // namespace
}  // namespace glova::spice
