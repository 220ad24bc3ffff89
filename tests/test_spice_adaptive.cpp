// LTE-adaptive timestep tests: controller bookkeeping (accepted/rejected
// counters, dt trace) on a stiff clocked circuit, agreement with the fixed
// reference grid (on that circuit and on every SPICE testbench's metrics),
// and the process-wide step counters the evaluation engine surfaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "backend_parity_grid.hpp"
#include "circuits/registry.hpp"
#include "common/rng.hpp"
#include "pdk/corner.hpp"
#include "pdk/mos_params.hpp"
#include "pdk/variation.hpp"
#include "spice/circuit.hpp"
#include "spice/counters.hpp"
#include "spice/simulator.hpp"
#include "spice_test_context.hpp"

namespace glova::spice {
namespace {

constexpr double kVdd = 0.9;
constexpr double kTStop = 3e-9;
constexpr double kDt = 2e-12;

/// A stiff testbench for the step controller: a two-stage CMOS inverter
/// chain driven by a sharp pulse.  The input edges force tiny steps (and
/// rejections while the controller re-learns the scale), the flat phases
/// between them let dt grow by an order of magnitude.
Circuit stiff_chain() {
  Circuit ckt;
  const auto vdd = ckt.node("vdd");
  const auto in = ckt.node("in");
  const auto mid = ckt.node("mid");
  const auto out = ckt.node("out");
  ckt.add_vsource("VDD", vdd, Circuit::ground(), Waveform::dc(kVdd));
  ckt.add_vsource("VIN", in, Circuit::ground(),
                  Waveform::pulse(0.0, kVdd, 0.2e-9, 20e-12, 20e-12, 2e-9, 5e-9));
  const pdk::PvtCorner corner = pdk::typical_corner();
  const pdk::MosParams n = pdk::mos_params(false, corner, 100e-9);
  const pdk::MosParams p = pdk::mos_params(true, corner, 100e-9);
  ckt.add_mosfet("MN1", mid, in, Circuit::ground(), n, 2e-6, 100e-9);
  ckt.add_mosfet("MP1", mid, in, vdd, p, 4e-6, 100e-9);
  ckt.add_mosfet("MN2", out, mid, Circuit::ground(), n, 2e-6, 100e-9);
  ckt.add_mosfet("MP2", out, mid, vdd, p, 4e-6, 100e-9);
  ckt.add_resistor("RL", mid, out, 10e3);
  ckt.add_capacitor("CM", mid, Circuit::ground(), 2e-15);
  ckt.add_capacitor("CL", out, Circuit::ground(), 5e-15);
  return ckt;
}

TransientSpec chain_spec() {
  TransientSpec spec;
  spec.t_stop = kTStop;
  spec.dt = kDt;
  spec.record = {"out", "mid"};
  return spec;
}

TEST(AdaptiveTimestep, FixedGridStepBookkeeping) {
  const Circuit ckt = stiff_chain();
  Simulator sim(ckt);
  const TransientResult res = sim.transient(chain_spec());
  ASSERT_TRUE(res.ok) << res.error;

  // Uniform grid: every step accepted at exactly spec.dt, none rejected,
  // and the trace sums back to t_stop.
  EXPECT_EQ(res.steps_rejected, 0u);
  EXPECT_EQ(res.steps_accepted, res.times.size() - 1);
  ASSERT_EQ(res.dt_trace.size(), res.steps_accepted);
  for (const double dt : res.dt_trace) EXPECT_NEAR(dt, kDt, 1e-18);
  const double total = std::accumulate(res.dt_trace.begin(), res.dt_trace.end(), 0.0);
  EXPECT_NEAR(total, kTStop, 1e-15);
  EXPECT_DOUBLE_EQ(res.times.back(), kTStop);
}

TEST(AdaptiveTimestep, StiffRampControllerAdaptsAndMatchesFixedGrid) {
  const Circuit ckt = stiff_chain();
  Simulator fixed_sim(ckt);
  const TransientResult fixed = fixed_sim.transient(chain_spec());
  ASSERT_TRUE(fixed.ok) << fixed.error;

  SimulatorOptions opt;
  opt.adaptive_timestep = true;
  Simulator sim(ckt, opt);
  const TransientResult res = sim.transient(chain_spec());
  ASSERT_TRUE(res.ok) << res.error;

  // Bookkeeping invariants: one recorded time per accepted step (plus t=0),
  // the dt trace tiles [0, t_stop] exactly, and the run ends on t_stop.
  EXPECT_EQ(res.times.size(), res.steps_accepted + 1);
  ASSERT_EQ(res.dt_trace.size(), res.steps_accepted);
  const double total = std::accumulate(res.dt_trace.begin(), res.dt_trace.end(), 0.0);
  EXPECT_NEAR(total, kTStop, kTStop * 1e-12);
  EXPECT_DOUBLE_EQ(res.times.back(), kTStop);

  // The controller genuinely adapts: far fewer steps than the fixed grid,
  // with at least one rejection at the sharp input edges and a dt range
  // spanning well beyond the initial step.
  EXPECT_LT(res.steps_accepted, fixed.steps_accepted / 2);
  EXPECT_GT(res.steps_rejected, 0u);
  const auto [lo, hi] = std::minmax_element(res.dt_trace.begin(), res.dt_trace.end());
  EXPECT_GE(*hi / *lo, 4.0);

  // Same endpoint physics as the fixed reference.
  for (const char* name : {"out", "mid"}) {
    EXPECT_NEAR(res.trace(name).back(), fixed.trace(name).back(), 0.02 * kVdd) << name;
  }
}

TEST(AdaptiveTimestep, ProcessCountersMirrorResultCounters) {
  const Circuit ckt = stiff_chain();
  SimulatorOptions opt;
  opt.adaptive_timestep = true;
  const SpiceCounters before = spice_counters();
  const ScopedTestContext counted;
  Simulator sim(ckt, opt);
  const TransientResult res = sim.transient(chain_spec());
  ASSERT_TRUE(res.ok) << res.error;
  // The process totals and the installed context's sink both see the run.
  const SpiceCounters after = spice_counters();
  EXPECT_EQ(after.steps_accepted - before.steps_accepted, res.steps_accepted);
  EXPECT_EQ(after.steps_rejected - before.steps_rejected, res.steps_rejected);
  const SpiceCounters c = counted.sink().spice();
  EXPECT_EQ(c.steps_accepted, res.steps_accepted);
  EXPECT_EQ(c.steps_rejected, res.steps_rejected);
}

// On the testbenches the adaptive and fixed grids differ, so metrics agree
// only within the controller's truncation-error tolerance.  The 3% band is
// ~4x the worst deviation observed across the parity grid (see
// docs/architecture.md).  Each draw is a cold solve, so the comparison does
// not depend on evaluation order.
TEST(AdaptiveTimestep, TestbenchMetricsStayWithinToleranceBand) {
  EvalContext adaptive;
  adaptive.options.adaptive_timestep = true;
  for (const circuits::Testcase tc : circuits::all_testcases()) {
    const auto tb = circuits::make_testbench(tc, circuits::Backend::Spice);
    const auto designs = parity_grid::designs_x01(tc);
    for (std::size_t d = 0; d < 2; ++d) {  // two designs bound the runtime
      const auto x = tb->sizing().denormalize(designs[d]);
      Rng rng(100 + d);
      auto hs = pdk::sample_mismatch_set(tb->mismatch_layout(x, false), 2, rng,
                                         pdk::GlobalMode::Zero);
      hs.insert(hs.begin(), std::vector<double>{});
      for (const pdk::PvtCorner& corner : parity_grid::corners()) {
        for (std::size_t i = 0; i < hs.size(); ++i) {
          const std::vector<double> ref = tb->evaluate(x, corner, hs[i]);
          const std::vector<double> got = [&] {
            const ScopedTestContext scope(adaptive);
            return tb->evaluate(x, corner, hs[i]);
          }();
          ASSERT_EQ(got.size(), ref.size());
          for (std::size_t mi = 0; mi < ref.size(); ++mi) {
            EXPECT_NEAR(got[mi], ref[mi], 0.03 * std::abs(ref[mi]) + 1e-12)
                << circuits::to_string(tc) << " design " << d << " corner " << corner.name()
                << " draw " << i << " metric " << mi;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace glova::spice
