// Tests for the SPICE engine: linear algebra, operating point, transient
// accuracy against closed-form RC solutions, device models, the netlist
// parser, and waveform measurements.
#include <gtest/gtest.h>

#include <cmath>

#include "circuits/spice_backend.hpp"
#include "common/rng.hpp"
#include "pdk/corner.hpp"
#include "pdk/mos_params.hpp"
#include "spice/circuit.hpp"
#include "spice/lu.hpp"
#include "spice/measure.hpp"
#include "spice/mos_model.hpp"
#include "spice/parser.hpp"
#include "spice/simulator.hpp"
#include "spice/waveform.hpp"

namespace glova::spice {
namespace {

TEST(Lu, SolvesKnownSystem) {
  DenseMatrix a(2);
  a.at(0, 0) = 2.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = 3.0;
  LuSolver solver;
  ASSERT_TRUE(solver.factor(a));
  const auto x = solver.solve(std::vector<double>{5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, DetectsSingular) {
  DenseMatrix a(2);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 4.0;
  LuSolver solver;
  EXPECT_FALSE(solver.factor(a));
}

TEST(Lu, RandomRoundTrip) {
  Rng rng(4);
  const std::size_t n = 12;
  DenseMatrix a(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a.at(i, j) = rng.uniform(-1.0, 1.0);
    a.at(i, i) += 5.0;
  }
  const std::vector<double> x_true = rng.uniform_vector(n, -2.0, 2.0);
  std::vector<double> b(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b[i] += a.at(i, j) * x_true[j];
  }
  LuSolver solver;
  ASSERT_TRUE(solver.factor(a));
  const auto x = solver.solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(Waveform, PulseShape) {
  const Waveform w = Waveform::pulse(0.0, 1.0, 1e-9, 0.1e-9, 0.1e-9, 1e-9, 0.0);
  EXPECT_DOUBLE_EQ(w.value(0.0), 0.0);
  EXPECT_NEAR(w.value(1.05e-9), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(w.value(1.5e-9), 1.0);
  EXPECT_DOUBLE_EQ(w.value(3.0e-9), 0.0);
}

TEST(Waveform, PwlInterpolates) {
  const Waveform w = Waveform::pwl({0.0, 1.0, 2.0}, {0.0, 2.0, 0.0});
  EXPECT_DOUBLE_EQ(w.value(0.5), 1.0);
  EXPECT_DOUBLE_EQ(w.value(1.5), 1.0);
  EXPECT_DOUBLE_EQ(w.value(5.0), 0.0);
  EXPECT_THROW((void)Waveform::pwl({1.0, 0.5}, {0.0, 1.0}), std::invalid_argument);
}

TEST(Op, VoltageDivider) {
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto mid = ckt.node("mid");
  ckt.add_vsource("V1", in, Circuit::ground(), Waveform::dc(1.0));
  ckt.add_resistor("R1", in, mid, 1e3);
  ckt.add_resistor("R2", mid, Circuit::ground(), 3e3);
  Simulator sim(ckt);
  const OpResult op = sim.operating_point();
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(op.node_voltages[mid], 0.75, 1e-6);
  // Branch current of V1: 1 V over 4 kOhm, flowing out of + internally.
  EXPECT_NEAR(op.vsource_currents[0], -1.0 / 4e3, 1e-9);
}

TEST(Op, CurrentSourceIntoResistor) {
  Circuit ckt;
  const auto out = ckt.node("out");
  ckt.add_isource("I1", Circuit::ground(), out, Waveform::dc(1e-3));
  ckt.add_resistor("R1", out, Circuit::ground(), 2e3);
  Simulator sim(ckt);
  const OpResult op = sim.operating_point();
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(op.node_voltages[out], 2.0, 1e-6);
}

TEST(Op, VcvsGain) {
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add_vsource("V1", in, Circuit::ground(), Waveform::dc(0.25));
  ckt.add_vcvs("E1", out, Circuit::ground(), in, Circuit::ground(), 4.0);
  ckt.add_resistor("RL", out, Circuit::ground(), 1e3);
  Simulator sim(ckt);
  const OpResult op = sim.operating_point();
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(op.node_voltages[out], 1.0, 1e-6);
}

TEST(Op, NmosSaturationCurrentMatchesModel) {
  const pdk::MosParams params = pdk::mos_params(false, pdk::typical_corner(), 60e-9);
  Circuit ckt;
  const auto d = ckt.node("d");
  const auto g = ckt.node("g");
  ckt.add_vsource("VD", d, Circuit::ground(), Waveform::dc(0.9));
  ckt.add_vsource("VG", g, Circuit::ground(), Waveform::dc(0.9));
  ckt.add_mosfet("M1", d, g, Circuit::ground(), params, 1e-6, 60e-9);
  Simulator sim(ckt);
  const OpResult op = sim.operating_point();
  ASSERT_TRUE(op.converged);
  const double expected = pdk::square_law_id(params, 1e-6 / 60e-9, 0.9, 0.9);
  // VD supplies the drain current (negative branch convention).
  EXPECT_NEAR(-op.vsource_currents[0], expected, expected * 1e-3 + 1e-12);
}

TEST(Op, CmosInverterTransfersCorrectly) {
  const auto nmos = pdk::mos_params(false, pdk::typical_corner(), 60e-9);
  const auto pmos = pdk::mos_params(true, pdk::typical_corner(), 60e-9);
  const auto out_at = [&](double vin) {
    Circuit ckt;
    const auto vdd = ckt.node("vdd");
    const auto in = ckt.node("in");
    const auto out = ckt.node("out");
    ckt.add_vsource("VDD", vdd, Circuit::ground(), Waveform::dc(0.9));
    ckt.add_vsource("VIN", in, Circuit::ground(), Waveform::dc(vin));
    ckt.add_mosfet("MN", out, in, Circuit::ground(), nmos, 1e-6, 60e-9);
    ckt.add_mosfet("MP", out, in, vdd, pmos, 2e-6, 60e-9);
    Simulator sim(ckt);
    const OpResult op = sim.operating_point();
    EXPECT_TRUE(op.converged) << "vin = " << vin;
    return op.node_voltages[out];
  };
  EXPECT_GT(out_at(0.0), 0.85);   // input low -> output high
  EXPECT_LT(out_at(0.9), 0.05);   // input high -> output low
  EXPECT_GT(out_at(0.2), out_at(0.7));  // monotone falling
}

// The MOS channel is symmetric: biasing the "source" terminal above the
// "drain" must produce the same current magnitude flowing the other way,
// both in the raw linearization and through the assembled MNA stamp.
TEST(Op, NmosReversedBiasSwapsSourceAndDrain) {
  const pdk::MosParams params = pdk::mos_params(false, pdk::typical_corner(), 60e-9);
  const double w_over_l = 1e-6 / 60e-9;
  for (const auto model : {MosModel::kLevel1, MosModel::kEkv}) {
    const MosLinearization fwd = nmos_linearize(model, params, w_over_l, 0.9, 0.9, 0.0);
    const MosLinearization rev = nmos_linearize(model, params, w_over_l, 0.9, 0.0, 0.9);
    EXPECT_DOUBLE_EQ(rev.i_ds, -fwd.i_ds);
    // Swapping terminals swaps the roles of the drain/source derivatives:
    // the low terminal sees gm + gds, mirroring -d_vs of the forward bias.
    EXPECT_DOUBLE_EQ(rev.d_vd, -fwd.d_vs);
    EXPECT_GT(rev.d_vd, 0.0);
    EXPECT_LT(rev.d_vs, 0.0);
  }

  // Same check through the full operating-point solve: reverse the supply
  // and the measured branch current flips sign, same magnitude.
  const auto branch_current = [&](double vd, double vs) {
    Circuit ckt;
    const auto d = ckt.node("d");
    const auto g = ckt.node("g");
    const auto s = ckt.node("s");
    ckt.add_vsource("VD", d, Circuit::ground(), Waveform::dc(vd));
    ckt.add_vsource("VG", g, Circuit::ground(), Waveform::dc(0.9));
    ckt.add_vsource("VS", s, Circuit::ground(), Waveform::dc(vs));
    ckt.add_mosfet("M1", d, g, s, params, 1e-6, 60e-9);
    Simulator sim(ckt);
    const OpResult op = sim.operating_point();
    EXPECT_TRUE(op.converged);
    return op.vsource_currents[0];  // VD branch
  };
  const double fwd_i = branch_current(0.9, 0.0);
  const double rev_i = branch_current(0.0, 0.9);
  // The small residual asymmetry is gmin leakage through swapped node sets.
  EXPECT_NEAR(rev_i, -fwd_i, 1e-8 * std::abs(fwd_i));
}

// Regression for the cutoff-region stamp bug: at vds == 0 an on channel
// carries no current but is still a resistor of conductance k*Vov.  The
// old model classified vds == 0 as cutoff and stamped gds = 0, starving
// Newton of the derivative that moves a pass-gate node off equal bias.
TEST(Op, PassGateAtEqualBiasKeepsChannelConductance) {
  const pdk::MosParams params = pdk::mos_params(false, pdk::typical_corner(), 60e-9);
  const double w_over_l = 1e-6 / 60e-9;
  const double vov = 0.45 - params.vth;  // vgs = vg - vs = 0.45
  for (const auto model : {MosModel::kLevel1, MosModel::kEkv}) {
    const MosLinearization lin = nmos_linearize(model, params, w_over_l, 0.9, 0.45, 0.45);
    EXPECT_DOUBLE_EQ(lin.i_ds, 0.0);
    EXPECT_GT(lin.d_vd, 0.0) << "channel conductance lost at vds == 0";
    // Level-1 triode limit: gds -> k * Vov as vds -> 0 (clm factor is 1).
    if (model == MosModel::kLevel1) {
      EXPECT_NEAR(lin.d_vd, params.kp * w_over_l * vov, 1e-9);
    }
  }

  // Functional version: a node connected only through an on pass-gate must
  // settle to the driven level (gmin alone would leave it near ground).
  Circuit ckt;
  const auto d = ckt.node("d");
  const auto g = ckt.node("g");
  const auto s = ckt.node("s");
  ckt.add_vsource("VG", g, Circuit::ground(), Waveform::dc(0.9));
  ckt.add_vsource("VS", s, Circuit::ground(), Waveform::dc(0.45));
  ckt.add_mosfet("M1", d, g, s, params, 1e-6, 60e-9);
  Simulator sim(ckt);
  const OpResult op = sim.operating_point();
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(op.node_voltages[d], 0.45, 1e-6);
}

TEST(Transient, RcDischargeMatchesAnalytic) {
  // C charged to 1 V discharging through R: v(t) = exp(-t/RC).
  Circuit ckt;
  const auto out = ckt.node("out");
  ckt.add_resistor("R1", out, Circuit::ground(), 1e3);
  ckt.add_capacitor("C1", out, Circuit::ground(), 1e-12, 1.0);
  Simulator sim(ckt);
  TransientSpec spec;
  spec.t_stop = 3e-9;
  spec.dt = 5e-12;
  spec.use_ic = true;
  spec.initial_conditions["out"] = 1.0;
  const TransientResult res = sim.transient(spec);
  ASSERT_TRUE(res.ok) << res.error;
  const auto& v = res.trace("out");
  const double tau = 1e3 * 1e-12;
  for (std::size_t i = 0; i < res.times.size(); i += 50) {
    EXPECT_NEAR(v[i], std::exp(-res.times[i] / tau), 5e-3) << "t = " << res.times[i];
  }
}

TEST(Transient, RcChargeStepResponse) {
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add_vsource("V1", in, Circuit::ground(),
                  Waveform::pulse(0.0, 1.0, 0.1e-9, 1e-12, 1e-12, 10e-9, 0.0));
  ckt.add_resistor("R1", in, out, 10e3);
  ckt.add_capacitor("C1", out, Circuit::ground(), 100e-15);
  Simulator sim(ckt);
  TransientSpec spec;
  spec.t_stop = 5e-9;
  spec.dt = 2e-12;
  const TransientResult res = sim.transient(spec);
  ASSERT_TRUE(res.ok) << res.error;
  const auto& v = res.trace("out");
  const double tau = 10e3 * 100e-15;  // 1 ns
  const double t_probe = 0.1e-9 + tau;
  EXPECT_NEAR(value_at(res.times, v, t_probe), 1.0 - std::exp(-1.0), 0.01);
}

TEST(Transient, EnergyConservationInRcCharge) {
  // Charging a cap through a resistor from a step: the supply delivers
  // C*V^2, half stored, half dissipated.
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add_vsource("V1", in, Circuit::ground(),
                  Waveform::pulse(0.0, 1.0, 0.05e-9, 1e-12, 1e-12, 100e-9, 0.0));
  ckt.add_resistor("R1", in, out, 1e3);
  ckt.add_capacitor("C1", out, Circuit::ground(), 200e-15);
  Simulator sim(ckt);
  TransientSpec spec;
  spec.t_stop = 3e-9;  // 15 tau
  spec.dt = 1e-12;
  const TransientResult res = sim.transient(spec);
  ASSERT_TRUE(res.ok);
  const double delivered = supply_energy(res.times, res.trace("I(V1)"), 1.0, 0.0, 3e-9);
  EXPECT_NEAR(delivered, 200e-15 * 1.0, 200e-15 * 0.05);
}

TEST(Transient, FinalStepLandsExactlyOnTStop) {
  // t_stop is NOT an integer multiple of dt: the final partial step must
  // land exactly on t_stop with strictly positive dt everywhere.
  Circuit ckt;
  const auto out = ckt.node("out");
  ckt.add_resistor("R1", out, Circuit::ground(), 1e3);
  ckt.add_capacitor("C1", out, Circuit::ground(), 1e-12, 1.0);
  Simulator sim(ckt);
  TransientSpec spec;
  spec.t_stop = 1e-9;
  spec.dt = 3e-13;
  spec.use_ic = true;
  spec.initial_conditions["out"] = 1.0;
  const TransientResult res = sim.transient(spec);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_DOUBLE_EQ(res.times.back(), spec.t_stop);
  // ceil(1e-9 / 3e-13) = 3334 steps plus the initial point.
  EXPECT_EQ(res.times.size(), 3335u);
  for (std::size_t i = 1; i < res.times.size(); ++i) {
    EXPECT_GT(res.times[i], res.times[i - 1]) << "non-positive dt at step " << i;
  }

  // Exact-multiple case ends on t_stop too, with no extra step.
  spec.dt = 1e-12;
  const TransientResult even = sim.transient(spec);
  ASSERT_TRUE(even.ok);
  EXPECT_DOUBLE_EQ(even.times.back(), spec.t_stop);
  EXPECT_EQ(even.times.size(), 1001u);
}

TEST(Transient, ReportsIterationCountersAndDcOp) {
  // The StrongARM latch netlist: the DC point the transient starts from is
  // returned (the AC/noise pass reuses it), with the Newton work split into
  // the DC solve and at least one iteration per accepted step.
  const circuits::StrongArmLatchSpice sal;
  const std::vector<double> x01 = {0.2, 0.3, 0.2, 0.2, 0.2, 0.1, 0.2,
                                   0.0, 0.0, 0.0, 0.0, 0.0, 0.05, 0.01};
  const Circuit ckt = sal.build_netlist(sal.sizing().denormalize(x01), pdk::typical_corner(), {});
  Simulator sim(ckt);
  TransientSpec spec;
  spec.t_stop = 0.4e-9;
  spec.dt = 2e-12;
  spec.record = {"out_a", "out_b"};

  const TransientResult res = sim.transient(spec);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.dc_op.converged);
  EXPECT_GT(res.dc_iterations, 0);
  EXPECT_GE(res.newton_iterations, res.times.size() - 1);  // >= 1 per step
}

TEST(TransientResult, TraceLookupByNameIsRebuiltAfterAppends) {
  TransientResult r;
  r.traces.push_back(Trace{"a", {1.0}});
  r.traces.push_back(Trace{"b", {2.0}});
  EXPECT_TRUE(r.has_trace("a"));
  EXPECT_EQ(r.trace("b")[0], 2.0);
  EXPECT_FALSE(r.has_trace("c"));
  r.traces.push_back(Trace{"c", {3.0}});  // map must rebuild lazily
  EXPECT_TRUE(r.has_trace("c"));
  EXPECT_EQ(r.trace("c")[0], 3.0);
  EXPECT_THROW((void)r.trace("missing"), std::out_of_range);
}

TEST(Op, PinnedSourceAbsorptionMatchesFullBranchFormulation) {
  // The structure-aware plan absorbs grounded ideal sources (5 unknowns on
  // the SAL netlist instead of 13).  Both formulations solve the same
  // equations: operating points must agree to solver tolerance.
  const auto nmos = pdk::mos_params(false, pdk::typical_corner(), 60e-9);
  const auto pmos = pdk::mos_params(true, pdk::typical_corner(), 60e-9);
  Circuit ckt;
  const auto vdd = ckt.node("vdd");
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  const auto buf = ckt.node("buf");
  ckt.add_vsource("VDD", vdd, Circuit::ground(), Waveform::dc(0.9));
  ckt.add_vsource("VIN", in, Circuit::ground(), Waveform::dc(0.35));
  ckt.add_mosfet("MN", out, in, Circuit::ground(), nmos, 1e-6, 60e-9);
  ckt.add_mosfet("MP", out, in, vdd, pmos, 2e-6, 60e-9);
  ckt.add_resistor("RL", out, buf, 5e3);
  ckt.add_capacitor("CL", buf, Circuit::ground(), 1e-15);

  SimulatorOptions absorbed;
  SimulatorOptions full;
  full.pin_grounded_sources = false;
  Simulator sim_a(ckt, absorbed);
  Simulator sim_f(ckt, full);
  EXPECT_LT(sim_a.plan().unknown_count(), sim_f.plan().unknown_count());

  const OpResult a = sim_a.operating_point();
  const OpResult f = sim_f.operating_point();
  ASSERT_TRUE(a.converged);
  ASSERT_TRUE(f.converged);
  for (std::size_t nd = 0; nd < a.node_voltages.size(); ++nd) {
    EXPECT_NEAR(a.node_voltages[nd], f.node_voltages[nd], 1e-6) << "node " << nd;
  }
  ASSERT_EQ(a.vsource_currents.size(), f.vsource_currents.size());
  for (std::size_t si = 0; si < a.vsource_currents.size(); ++si) {
    EXPECT_NEAR(a.vsource_currents[si], f.vsource_currents[si],
                std::abs(f.vsource_currents[si]) * 1e-6 + 1e-12)
        << "source " << si;
  }
}

TEST(Transient, PinnedSourceAbsorptionMatchesFullBranchWaveforms) {
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add_vsource("V1", in, Circuit::ground(),
                  Waveform::pulse(0.0, 1.0, 0.1e-9, 1e-12, 1e-12, 10e-9, 0.0));
  ckt.add_resistor("R1", in, out, 10e3);
  ckt.add_capacitor("C1", out, Circuit::ground(), 100e-15);
  TransientSpec spec;
  spec.t_stop = 2e-9;
  spec.dt = 2e-12;

  SimulatorOptions full;
  full.pin_grounded_sources = false;
  Simulator sim_a(ckt);
  Simulator sim_f(ckt, full);
  const TransientResult a = sim_a.transient(spec);
  const TransientResult f = sim_f.transient(spec);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(f.ok) << f.error;
  ASSERT_EQ(a.times.size(), f.times.size());
  const auto& va = a.trace("out");
  const auto& vf = f.trace("out");
  const auto& ia = a.trace("I(V1)");
  const auto& iff = f.trace("I(V1)");
  for (std::size_t i = 0; i < va.size(); i += 20) {
    EXPECT_NEAR(va[i], vf[i], 1e-7) << "t = " << a.times[i];
    EXPECT_NEAR(ia[i], iff[i], 1e-10) << "t = " << a.times[i];
  }

  // UIC variant: the t = 0 sample is the caller's initial state, not a
  // solved point — both formulations must record a zero branch current
  // there (regression: KCL recovery used to run against the unloaded
  // pinned tail).
  spec.use_ic = true;
  spec.initial_conditions["out"] = 0.5;
  const TransientResult au = sim_a.transient(spec);
  const TransientResult fu = sim_f.transient(spec);
  ASSERT_TRUE(au.ok) << au.error;
  ASSERT_TRUE(fu.ok) << fu.error;
  EXPECT_DOUBLE_EQ(au.trace("I(V1)")[0], 0.0);
  EXPECT_DOUBLE_EQ(fu.trace("I(V1)")[0], 0.0);
  const auto& vau = au.trace("out");
  const auto& vfu = fu.trace("out");
  const auto& iau = au.trace("I(V1)");
  const auto& ifu = fu.trace("I(V1)");
  for (std::size_t i = 0; i < vau.size(); i += 20) {
    EXPECT_NEAR(vau[i], vfu[i], 1e-7) << "t = " << au.times[i];
    EXPECT_NEAR(iau[i], ifu[i], 1e-10) << "t = " << au.times[i];
  }
}

TEST(Transient, FloatingCapacitorHoldsChargeWhenSwitchesOpen) {
  // The FIA reservoir construct: a capacitor between two internal nodes,
  // charged through MOSFET switches that then open.  The floating cap must
  // hold its rail-to-rail voltage (only the load discharges it).
  const auto nmos = pdk::mos_params(false, pdk::typical_corner(), 30e-9);
  const auto pmos = pdk::mos_params(true, pdk::typical_corner(), 30e-9);
  Circuit ckt;
  const auto vdd = ckt.node("vdd");
  const auto pc = ckt.node("pc");
  const auto pcb = ckt.node("pcb");
  const auto top = ckt.node("top");
  const auto bot = ckt.node("bot");
  ckt.add_vsource("VDD", vdd, Circuit::ground(), Waveform::dc(0.9));
  // Switches open at 0.2 ns: pc rises (PMOS off), pcb falls (NMOS off).
  ckt.add_vsource("VPC", pc, Circuit::ground(),
                  Waveform::pulse(0.0, 0.9, 0.2e-9, 10e-12, 10e-12, 1.0, 0.0));
  ckt.add_vsource("VPCB", pcb, Circuit::ground(),
                  Waveform::pulse(0.9, 0.0, 0.2e-9, 10e-12, 10e-12, 1.0, 0.0));
  ckt.add_mosfet("Msw_top", top, pc, vdd, pmos, 2e-6, 30e-9);
  ckt.add_mosfet("Msw_bot", bot, pcb, Circuit::ground(), nmos, 2e-6, 30e-9);
  ckt.add_capacitor("Cres", top, bot, 100e-15);
  // A resistive load across the floating cap discharges it slowly.
  ckt.add_resistor("RL", top, bot, 1e6);  // tau = 100 ns >> sim window
  Simulator sim(ckt);
  TransientSpec spec;
  spec.t_stop = 2e-9;
  spec.dt = 2e-12;
  spec.record = {"top", "bot"};
  const TransientResult res = sim.transient(spec);
  ASSERT_TRUE(res.ok) << res.error;
  const auto& vt = res.trace("top");
  const auto& vb = res.trace("bot");
  // Charged to the rails at DC...
  EXPECT_NEAR(vt.front() - vb.front(), 0.9, 1e-3);
  // ...and still holding (minus the slow RC droop) after the switches open.
  const double v_end = vt.back() - vb.back();
  const double expected = 0.9 * std::exp(-(2e-9 - 0.2e-9) / (1e6 * 100e-15));
  EXPECT_NEAR(v_end, expected, 0.02);
}

TEST(Transient, BoostedPassGateSharesChargeBidirectionally) {
  // The DRAM access construct: a boosted NMOS pass-gate between two caps,
  // with the *source* side above the drain side (reverse conduction — the
  // channel-symmetry path of the Level-1 model).
  const auto nmos = pdk::mos_params(false, pdk::typical_corner(), 50e-9);
  Circuit ckt;
  const auto cellv = ckt.node("cellv");
  const auto wl = ckt.node("wl");
  const auto wr = ckt.node("wr");
  const auto bl = ckt.node("bl");
  const auto blp = ckt.node("blp");
  const auto peq = ckt.node("peq");
  const auto cell = ckt.node("cell");
  // Cell written to 0.8 V, bitline precharged to 0.45 V; both switches
  // open before the wordline rises at 0.5 ns.
  ckt.add_vsource("VCELL", cellv, Circuit::ground(), Waveform::dc(0.8));
  ckt.add_vsource("VBLP", blp, Circuit::ground(), Waveform::dc(0.45));
  ckt.add_vsource("VWR", wr, Circuit::ground(),
                  Waveform::pulse(1.35, 0.0, 0.1e-9, 10e-12, 10e-12, 1.0, 0.0));
  ckt.add_vsource("VPEQ", peq, Circuit::ground(),
                  Waveform::pulse(1.35, 0.0, 0.1e-9, 10e-12, 10e-12, 1.0, 0.0));
  ckt.add_vsource("VWL", wl, Circuit::ground(),
                  Waveform::pulse(0.0, 1.35, 0.5e-9, 50e-12, 50e-12, 1.0, 0.0));
  ckt.add_mosfet("Mwr", cell, wr, cellv, nmos, 1e-6, 30e-9);
  ckt.add_mosfet("Mpeq", bl, peq, blp, nmos, 1e-6, 30e-9);
  ckt.add_mosfet("Macc", bl, wl, cell, nmos, 0.28e-6, 50e-9);
  ckt.add_capacitor("Cs", cell, Circuit::ground(), 12e-15);
  ckt.add_capacitor("Cbl", bl, Circuit::ground(), 24e-15);
  Simulator sim(ckt);
  TransientSpec spec;
  spec.t_stop = 3e-9;
  spec.dt = 2e-12;
  spec.record = {"cell", "bl"};
  const TransientResult res = sim.transient(spec);
  ASSERT_TRUE(res.ok) << res.error;
  // Charge conservation: 12f * 0.8 + 24f * 0.45 -> 36f * V  =>  V ~ 0.5667.
  const double v_share = (12e-15 * 0.8 + 24e-15 * 0.45) / 36e-15;
  EXPECT_NEAR(res.trace("bl").back(), v_share, 0.01);
  EXPECT_NEAR(res.trace("cell").back(), v_share, 0.01);
}

TEST(Measure, DifferenceOfTracePair) {
  const std::vector<double> a = {1.0, 3.0, 5.0};
  const std::vector<double> b = {0.5, 1.0, 1.5};
  const auto d = difference(a, b);
  ASSERT_EQ(d.size(), 3u);
  EXPECT_DOUBLE_EQ(d[0], 0.5);
  EXPECT_DOUBLE_EQ(d[2], 3.5);
  EXPECT_THROW((void)difference(a, std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Measure, CapacitorRechargeEnergy) {
  // 100 fF recharged by 0.25 V from a 0.9 V rail: C * Vdd * |dV|.
  EXPECT_DOUBLE_EQ(capacitor_recharge_energy(100e-15, 0.9, 0.9, 0.65), 100e-15 * 0.9 * 0.25);
  // Direction-independent magnitude; zero swing costs nothing.
  EXPECT_DOUBLE_EQ(capacitor_recharge_energy(100e-15, 0.9, 0.65, 0.9),
                   capacitor_recharge_energy(100e-15, 0.9, 0.9, 0.65));
  EXPECT_DOUBLE_EQ(capacitor_recharge_energy(100e-15, 0.9, 0.4, 0.4), 0.0);
}

TEST(Measure, CrossingAndIntegral) {
  const std::vector<double> t = {0.0, 1.0, 2.0, 3.0};
  const std::vector<double> v = {0.0, 1.0, 0.0, 1.0};
  const auto rise = first_crossing(t, v, 0.5, CrossDirection::Rising);
  ASSERT_TRUE(rise.has_value());
  EXPECT_DOUBLE_EQ(*rise, 0.5);
  const auto fall = first_crossing(t, v, 0.5, CrossDirection::Falling);
  ASSERT_TRUE(fall.has_value());
  EXPECT_DOUBLE_EQ(*fall, 1.5);
  const auto late = first_crossing(t, v, 0.5, CrossDirection::Rising, 1.6);
  ASSERT_TRUE(late.has_value());
  EXPECT_DOUBLE_EQ(*late, 2.5);
  EXPECT_FALSE(first_crossing(t, v, 2.0, CrossDirection::Rising).has_value());
  EXPECT_DOUBLE_EQ(integrate(t, v, 0.0, 3.0), 1.5);
  EXPECT_DOUBLE_EQ(integrate(t, v, 0.5, 1.5), 0.75);
  EXPECT_DOUBLE_EQ(min_in_window(t, v, 0.5, 2.5), 0.0);
  EXPECT_DOUBLE_EQ(max_in_window(t, v, 0.0, 1.2), 1.0);
}

TEST(Parser, NumbersWithSuffixes) {
  EXPECT_DOUBLE_EQ(parse_spice_number("10k"), 1e4);
  EXPECT_DOUBLE_EQ(parse_spice_number("100f"), 1e-13);
  EXPECT_DOUBLE_EQ(parse_spice_number("3meg"), 3e6);
  EXPECT_DOUBLE_EQ(parse_spice_number("2.5n"), 2.5e-9);
  EXPECT_DOUBLE_EQ(parse_spice_number("0.9"), 0.9);
  EXPECT_DOUBLE_EQ(parse_spice_number("1u"), 1e-6);
  EXPECT_THROW((void)parse_spice_number("abc"), std::runtime_error);
}

TEST(Parser, RcNetlistSimulates) {
  const std::string text = R"(* RC lowpass
VIN in 0 PULSE(0 1 0.1n 1p 1p 10n)
R1 in out 10k
C1 out 0 100f
.tran 2p 5n
.end
)";
  const ParsedNetlist parsed = parse_netlist(text);
  ASSERT_TRUE(parsed.tran.has_value());
  EXPECT_EQ(parsed.circuit.resistors().size(), 1u);
  EXPECT_EQ(parsed.circuit.capacitors().size(), 1u);
  Simulator sim(parsed.circuit);
  const TransientResult res = sim.transient(*parsed.tran);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_NEAR(value_at(res.times, res.trace("out"), 1.1e-9),
              1.0 - std::exp(-1.0), 0.02);
}

TEST(Parser, MosfetAndControlCards) {
  const std::string text = R"(
VDD vdd 0 0.9
VIN in 0 DC 0.45
M1 out in 0 NMOS W=1u L=60n
M2 out in vdd PMOS W=2u L=60n
.ic V(out)=0.5
.tran 1p 1n uic
.end
)";
  const ParsedNetlist parsed = parse_netlist(text);
  EXPECT_EQ(parsed.circuit.mosfets().size(), 2u);
  EXPECT_TRUE(parsed.circuit.mosfets()[1].params.is_pmos);
  EXPECT_DOUBLE_EQ(parsed.circuit.mosfets()[0].w, 1e-6);
  ASSERT_TRUE(parsed.tran.has_value());
  EXPECT_TRUE(parsed.tran->use_ic);
  EXPECT_DOUBLE_EQ(parsed.tran->initial_conditions.at("out"), 0.5);
}

TEST(Parser, MalformedLineReportsLineNumber) {
  try {
    (void)parse_netlist("R1 a b\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
}

TEST(Parser, MalformedPulseAndMosfetReportErrors) {
  // A PULSE stimulus with too few values (the clocked-testbench stimulus
  // shape every SPICE backend uses) must fail, naming the line.
  try {
    (void)parse_netlist("VDD vdd 0 0.9\nVCLK clk 0 PULSE(0 0.9 1n)\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("PULSE"), std::string::npos) << what;
  }
  // A MOSFET without its NMOS/PMOS model card is rejected.
  EXPECT_THROW((void)parse_netlist("M1 d g 0 W=1u L=30n\n"), std::runtime_error);
  // A floating capacitor with a malformed value is rejected.
  EXPECT_THROW((void)parse_netlist("C1 top bot 100q\n"), std::runtime_error);
}

}  // namespace
}  // namespace glova::spice
