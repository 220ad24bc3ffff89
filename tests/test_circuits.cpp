// Tests for the testcase circuits: spec fidelity to the paper, physical
// trend sanity of the behavioral models, mismatch sensitivity, and the
// existence of robust designs (which pins every Table II cell as solvable).
#include <gtest/gtest.h>

#include <algorithm>

#include "circuits/dram_ocsa.hpp"
#include "circuits/fia.hpp"
#include "circuits/registry.hpp"
#include "circuits/spice_backend.hpp"
#include "circuits/strongarm.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "pdk/variation.hpp"

namespace glova::circuits {
namespace {

using namespace units::literals;

std::vector<double> mid_design(const Testbench& tb) {
  std::vector<double> x01(tb.sizing().dimension(), 0.5);
  return tb.sizing().denormalize(x01);
}

TEST(Specs, SalMatchesPaper) {
  StrongArmLatch sal;
  const auto& sz = sal.sizing();
  ASSERT_EQ(sz.dimension(), 14u);  // 6 widths + 6 lengths + 2 caps
  EXPECT_DOUBLE_EQ(sz.lower[0], 0.28e-6);
  EXPECT_DOUBLE_EQ(sz.upper[0], 32.8e-6);
  EXPECT_DOUBLE_EQ(sz.lower[6], 0.03e-6);
  EXPECT_DOUBLE_EQ(sz.upper[6], 0.33e-6);
  EXPECT_DOUBLE_EQ(sz.lower[SalSizing::kCOut], 0.005e-12);
  EXPECT_DOUBLE_EQ(sz.upper[SalSizing::kCOut], 5.5e-12);
  // ~10^28 design space at 100 steps per axis.
  EXPECT_NEAR(sz.log10_space_size(), 28.0, 1e-9);
  const auto& perf = sal.performance();
  ASSERT_EQ(perf.count(), 4u);
  EXPECT_DOUBLE_EQ(perf.metrics[0].bound, 40e-6);   // power <= 40 uW
  EXPECT_DOUBLE_EQ(perf.metrics[1].bound, 4e-9);    // set delay <= 4 ns
  EXPECT_DOUBLE_EQ(perf.metrics[3].bound, 120e-6);  // noise <= 120 uV
}

TEST(Specs, FiaMatchesPaper) {
  FloatingInverterAmplifier fia;
  EXPECT_EQ(fia.sizing().dimension(), 6u);
  EXPECT_NEAR(fia.sizing().log10_space_size(), 12.0, 1e-9);
  ASSERT_EQ(fia.performance().count(), 2u);
  EXPECT_DOUBLE_EQ(fia.performance().metrics[0].bound, 0.1e-12);  // 0.1 pJ
  EXPECT_DOUBLE_EQ(fia.performance().metrics[1].bound, 130e-3);   // 130 mV
}

TEST(Specs, DramMatchesPaper) {
  DramOcsaSubhole dram;
  const auto& sz = dram.sizing();
  ASSERT_EQ(sz.dimension(), 12u);
  EXPECT_NEAR(sz.log10_space_size(), 24.0, 1e-9);
  // OCSA widths pitch-limited; SH widths 5-15 um; all lengths 30-60 nm.
  EXPECT_DOUBLE_EQ(sz.upper[DramSizing::kWXn], 1.028e-6);
  EXPECT_DOUBLE_EQ(sz.lower[DramSizing::kWNsa], 5e-6);
  EXPECT_DOUBLE_EQ(sz.upper[DramSizing::kWPsa], 15e-6);
  EXPECT_DOUBLE_EQ(sz.upper[DramSizing::kLXn], 0.06e-6);
  const auto& perf = dram.performance();
  ASSERT_EQ(perf.count(), 3u);
  EXPECT_EQ(perf.metrics[0].sense, Sense::MaximizeAbove);  // dVD0 >= 85 mV
  EXPECT_EQ(perf.metrics[1].sense, Sense::MaximizeAbove);
  EXPECT_DOUBLE_EQ(perf.metrics[2].bound, 30e-15);  // 30 fJ
}

TEST(Margins, SignConventions) {
  MetricSpec minimize{"m", "u", 1.0, 10.0, Sense::MinimizeBelow};
  EXPECT_GT(normalized_margin(minimize, 5.0), 0.0);
  EXPECT_LT(normalized_margin(minimize, 15.0), 0.0);
  EXPECT_DOUBLE_EQ(normalized_margin(minimize, 10.0), 0.0);
  MetricSpec maximize{"m", "u", 1.0, 10.0, Sense::MaximizeAbove};
  EXPECT_GT(normalized_margin(maximize, 15.0), 0.0);
  EXPECT_LT(normalized_margin(maximize, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(degradation(maximize, 15.0), -normalized_margin(maximize, 15.0));
}

class RoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(RoundTrip, NormalizeDenormalizeIsIdentity) {
  const auto tb = make_testbench(all_testcases()[GetParam() % 3]);
  const auto& sz = tb->sizing();
  Rng rng(GetParam() + 40);
  const auto x01 = rng.uniform_vector(sz.dimension(), 0.0, 1.0);
  const auto phys = sz.denormalize(x01);
  const auto back = sz.normalize(phys);
  for (std::size_t i = 0; i < sz.dimension(); ++i) {
    EXPECT_NEAR(back[i], x01[i], 1e-12);
    EXPECT_GE(phys[i], sz.lower[i]);
    EXPECT_LE(phys[i], sz.upper[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(AllCircuits, RoundTrip, ::testing::Range(0, 9));

TEST(SalTrends, BiggerLoadCapRaisesPowerLowersNoise) {
  StrongArmLatch sal;
  auto x = mid_design(sal);
  const auto base = sal.evaluate(x, pdk::typical_corner(), {});
  x[SalSizing::kCOut] *= 1.5;
  const auto bigger = sal.evaluate(x, pdk::typical_corner(), {});
  EXPECT_GT(bigger[0], base[0]);  // power up
  EXPECT_LT(bigger[3], base[3]);  // noise down
}

TEST(SalTrends, StrongerPrechargeSpeedsReset) {
  StrongArmLatch sal;
  auto x = mid_design(sal);
  const auto base = sal.evaluate(x, pdk::typical_corner(), {});
  x[SalSizing::kWPre] *= 2.0;
  const auto stronger = sal.evaluate(x, pdk::typical_corner(), {});
  EXPECT_LT(stronger[2], base[2]);  // reset delay down
}

TEST(SalTrends, LowVddSlowerThanHighVdd) {
  StrongArmLatch sal;
  const auto x = mid_design(sal);
  const pdk::PvtCorner hi{pdk::ProcessCorner::TT, 0.9, 27.0, true};
  const pdk::PvtCorner lo{pdk::ProcessCorner::TT, 0.8, 27.0, true};
  EXPECT_GT(sal.evaluate(x, lo, {})[1], sal.evaluate(x, hi, {})[1]);
}

TEST(SalTrends, InputPairMismatchSlowsDecision) {
  StrongArmLatch sal;
  const auto x = mid_design(sal);
  std::vector<double> h(22, 0.0);
  h[2 * 1] = 0.02;   // in_a dvth +20 mV
  h[2 * 2] = -0.02;  // in_b dvth -20 mV -> 40 mV offset
  const auto base = sal.evaluate(x, pdk::typical_corner(), {});
  const auto off = sal.evaluate(x, pdk::typical_corner(), h);
  EXPECT_GT(off[1], base[1]);  // set delay degrades
}

TEST(FiaTrends, EnergyGrowsWithCaps) {
  FloatingInverterAmplifier fia;
  auto x = mid_design(fia);
  const auto base = fia.evaluate(x, pdk::typical_corner(), {});
  x[FiaSizing::kCRes] *= 2.0;
  EXPECT_GT(fia.evaluate(x, pdk::typical_corner(), {})[0], base[0]);
}

TEST(FiaTrends, InverterMismatchRaisesNoise) {
  FloatingInverterAmplifier fia;
  const auto x = mid_design(fia);
  std::vector<double> h(8, 0.0);
  h[0] = 0.03;
  h[2] = -0.03;  // 60 mV inverter offset
  EXPECT_GT(fia.evaluate(x, pdk::typical_corner(), h)[1],
            fia.evaluate(x, pdk::typical_corner(), {})[1]);
}

TEST(DramTrends, OffsetSignConflictsBetweenData0And1) {
  DramOcsaSubhole dram;
  const auto x = mid_design(dram);
  std::vector<double> h(21, 0.0);
  h[0] = 0.03;  // xn_a slower: positive offset favors one polarity
  const auto pos = dram.evaluate(x, pdk::typical_corner(), h);
  h[0] = -0.03;
  const auto neg = dram.evaluate(x, pdk::typical_corner(), h);
  // The sign of the SA offset must trade dVD0 against dVD1.
  EXPECT_GT(pos[0], neg[0]);
  EXPECT_LT(pos[1], neg[1]);
}

TEST(DramTrends, CellLevelLossHurtsHighData) {
  DramOcsaSubhole dram;
  const auto x = mid_design(dram);
  std::vector<double> h(21, 0.0);
  h[18] = -0.05;  // dvcell -50 mV (weak stored '1')
  const auto weak = dram.evaluate(x, pdk::typical_corner(), h);
  const auto base = dram.evaluate(x, pdk::typical_corner(), {});
  EXPECT_LT(weak[1], base[1]);  // dVD1 down
  EXPECT_GT(weak[0], base[0]);  // dVD0 up (lower '0' level is easier to read)
}

TEST(DramTrends, BiggerDriversCostEnergy) {
  DramOcsaSubhole dram;
  auto x = mid_design(dram);
  const auto base = dram.evaluate(x, pdk::typical_corner(), {});
  x[DramSizing::kWNsa] = 15e-6;
  x[DramSizing::kWPsa] = 15e-6;
  EXPECT_GT(dram.evaluate(x, pdk::typical_corner(), {})[2], base[2]);
}

TEST(MismatchLayout, DimensionsAndXDependence) {
  StrongArmLatch sal;
  auto x = mid_design(sal);
  const auto layout = sal.mismatch_layout(x, true);
  EXPECT_EQ(layout.dimension(), 22u);  // 11 devices x (dvth, dbeta)
  // Shrinking the input pair raises its local sigma (Pelgrom).
  auto x_small = x;
  x_small[SalSizing::kWIn] = 0.28e-6;
  const auto layout_small = sal.mismatch_layout(x_small, true);
  EXPECT_GT(layout_small.local_sigma[2], layout.local_sigma[2]);

  DramOcsaSubhole dram;
  EXPECT_EQ(dram.mismatch_layout(mid_design(dram), true).dimension(), 21u);
  FloatingInverterAmplifier fia;
  EXPECT_EQ(fia.mismatch_layout(mid_design(fia), true).dimension(), 8u);
}

TEST(Registry, FactoriesAndNames) {
  EXPECT_EQ(all_testcases().size(), 3u);
  for (const auto tc : all_testcases()) {
    for (const Backend b : {Backend::Behavioral, Backend::Spice}) {
      const auto tb = make_testbench(tc, b);
      ASSERT_NE(tb, nullptr);
      EXPECT_FALSE(tb->name().empty());
    }
  }
}

TEST(Registry, CapabilityQueries) {
  // Every Table II block runs on both backends (ISSUE 5 closed the SPICE
  // gap for the FIA and the DRAM OCSA).
  for (const auto tc : all_testcases()) {
    EXPECT_TRUE(is_available(tc, Backend::Behavioral));
    EXPECT_TRUE(is_available(tc, Backend::Spice));
    const auto backends = available_backends(tc);
    ASSERT_EQ(backends.size(), 2u);
    EXPECT_EQ(backends.front(), Backend::Behavioral);
    EXPECT_EQ(backends.back(), Backend::Spice);
  }

  // The capability list and the factory agree: whatever is_available
  // promises, make_testbench delivers.
  for (const auto tc : all_testcases()) {
    for (const Backend b : available_backends(tc)) {
      EXPECT_NE(make_testbench(tc, b), nullptr);
    }
  }
}

TEST(Registry, SupportedCombinationsListsFullMatrix) {
  const std::string combos = supported_combinations();
  for (const auto tc : all_testcases()) {
    for (const Backend b : available_backends(tc)) {
      const std::string entry = std::string(to_string(tc)) + "/" + to_string(b);
      EXPECT_NE(combos.find(entry), std::string::npos) << combos;
    }
  }
}

TEST(Registry, NameRoundTrips) {
  for (const auto tc : all_testcases()) {
    EXPECT_EQ(testcase_from_string(to_string(tc)), tc);
  }
  EXPECT_EQ(testcase_from_string("sal"), Testcase::Sal);
  EXPECT_EQ(testcase_from_string("dram"), Testcase::DramOcsa);
  EXPECT_EQ(testcase_from_string("bogus"), std::nullopt);
  EXPECT_EQ(backend_from_string("SPICE"), Backend::Spice);
  EXPECT_EQ(backend_from_string("behavioral"), Backend::Behavioral);
  EXPECT_EQ(backend_from_string("verilog"), std::nullopt);
}

/// The load-bearing calibration property: a known-good design per circuit
/// passes heavy verification under every regime, so every Table II cell has
/// a solution.  (Found by offline search; see DESIGN.md.)
struct RobustCase {
  Testcase tc;
  std::vector<double> x01;
};

class RobustDesignExists : public ::testing::TestWithParam<int> {};

TEST_P(RobustDesignExists, PassesHeavySampling) {
  static const RobustCase cases[] = {
      {Testcase::Sal,
       {0.056, 0.504, 0.455, 0.121, 0.174, 0.035, 1.0, 0.0, 0.16, 0.0, 0.061, 0.118, 0.027, 0.0}},
      {Testcase::Fia, {0.05, 0.25, 0.5, 0.3, 0.003, 0.001}},
      {Testcase::DramOcsa, {1, 1, 1, 0, 0.0, 0.3, 1, 1, 1, 0, 1.0, 1.0}},
  };
  const RobustCase& c = cases[GetParam()];
  const auto tb = make_testbench(c.tc);
  const auto x = tb->sizing().denormalize(c.x01);
  const auto& perf = tb->performance();

  // All 30 predefined corners, nominal mismatch.
  for (const auto& corner : pdk::full_corner_set()) {
    const auto m = tb->evaluate(x, corner, {});
    for (std::size_t i = 0; i < perf.count(); ++i) {
      EXPECT_GE(normalized_margin(perf.metrics[i], m[i]), 0.0)
          << corner.name() << " metric " << perf.metrics[i].name;
    }
  }
  // Global-local MC across the 6 VT corners (reduced sample count for test
  // runtime; the bench exercises the full 1K).
  Rng rng(99);
  int failures = 0;
  for (const auto& corner : pdk::vt_corner_set()) {
    const auto layout = tb->mismatch_layout(x, true);
    const auto hs = pdk::sample_mismatch_set(layout, 200, rng, pdk::GlobalMode::PerSample);
    for (const auto& h : hs) {
      const auto m = tb->evaluate(x, corner, h);
      for (std::size_t i = 0; i < perf.count(); ++i) {
        if (normalized_margin(perf.metrics[i], m[i]) < 0.0) ++failures;
      }
    }
  }
  EXPECT_EQ(failures, 0);
}

INSTANTIATE_TEST_SUITE_P(AllCircuits, RobustDesignExists, ::testing::Range(0, 3));

TEST(SpiceBackend, SalDecisionAndTrendsMatchBehavioral) {
  StrongArmLatchSpice spice_tb;
  StrongArmLatch behavioral;
  std::vector<double> x01 = {0.2, 0.3, 0.2, 0.2, 0.2, 0.1, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.05,
                             0.01};
  const auto x = spice_tb.sizing().denormalize(x01);
  const auto m = spice_tb.evaluate(x, pdk::typical_corner(), {});
  ASSERT_EQ(m.size(), 4u);
  // The latch must actually decide (finite delay) and reset.
  EXPECT_GT(m[1], 0.0);
  EXPECT_LT(m[1], 5e-9);
  EXPECT_LT(m[2], 5e-9);
  EXPECT_GT(m[0], 0.0);  // positive average power
  // Trend agreement with the behavioral model: more load cap -> slower reset.
  auto x_big = x;
  x_big[SalSizing::kCOut] *= 2.0;
  const auto m_big = spice_tb.evaluate(x_big, pdk::typical_corner(), {});
  EXPECT_GT(m_big[2], m[2]);
  EXPECT_GT(m_big[0], m[0]);
}

TEST(SpiceBackend, FiaAmplifiesAndTrendsMatchBehavioral) {
  FloatingInverterAmplifierSpice fia;
  const std::vector<double> x01 = {0.15, 0.4, 0.3, 0.2, 0.02, 0.01};
  const auto x = fia.sizing().denormalize(x01);
  const auto m = fia.evaluate(x, pdk::typical_corner(), {});
  ASSERT_EQ(m.size(), 2u);
  EXPECT_GT(m[0], 0.0);
  EXPECT_LT(m[0], 1e-12);  // sane per-conversion energy (< 1 pJ)
  EXPECT_GT(m[1], 0.0);
  EXPECT_LT(m[1], 0.1);  // the amplifier actually amplifies
  // A bigger reservoir stores — and therefore recharges — more charge.
  auto x_big = x;
  x_big[FiaSizing::kCRes] *= 2.0;
  EXPECT_GT(fia.evaluate(x_big, pdk::typical_corner(), {})[0], m[0]);
  // Inverter offset raises the input-referred error, as behaviorally.
  std::vector<double> h(8, 0.0);
  h[0] = 0.03;
  h[4] = -0.03;
  EXPECT_GT(fia.evaluate(x, pdk::typical_corner(), h)[1], m[1]);
}

TEST(SpiceBackend, DramOcsaResolvesBothPolaritiesAndOffsetTrades) {
  DramOcsaSubholeSpice dram;
  const std::vector<double> x01 = {0.7, 0.6, 0.8, 0.3, 0.4, 0.6, 0.8, 0.7, 0.9, 0.2, 0.8, 0.9};
  const auto x = dram.sizing().denormalize(x01);
  const auto m = dram.evaluate(x, pdk::typical_corner(), {});
  ASSERT_EQ(m.size(), 3u);
  // Both data polarities actually resolve with real margins.
  EXPECT_GT(m[0], 0.02);
  EXPECT_GT(m[1], 0.02);
  EXPECT_GT(m[2], 1e-15);
  EXPECT_LT(m[2], 1e-13);
  // The SA offset sign trades dVD0 against dVD1 with the behavioral
  // convention: a slower xn_a favors reading '0'.
  std::vector<double> h(21, 0.0);
  h[0] = 0.03;
  const auto pos = dram.evaluate(x, pdk::typical_corner(), h);
  h[0] = -0.03;
  const auto neg = dram.evaluate(x, pdk::typical_corner(), h);
  EXPECT_GT(pos[0], neg[0]);
  EXPECT_LT(pos[1], neg[1]);
}

}  // namespace
}  // namespace glova::circuits
