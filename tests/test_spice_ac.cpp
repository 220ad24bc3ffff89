// Tests for the linearized small-signal AC/noise pass (spice/ac.hpp) and
// the continuous EKV channel model (spice/mos_model.hpp):
//   - RC lowpass noise against the closed-form band-limited kT/C integral,
//   - common-source amplifier gain and output PSD against the hand-stamped
//     small-signal model,
//   - the noise-funnel invariant thermal^2 + flicker^2 == total^2,
//   - EKV-vs-Level-1 agreement deep in strong inversion.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/units.hpp"
#include "pdk/corner.hpp"
#include "pdk/mos_params.hpp"
#include "spice/ac.hpp"
#include "spice/circuit.hpp"
#include "spice/mos_model.hpp"
#include "spice/simulator.hpp"

namespace glova::spice {
namespace {

// ------------------------------------------------------------------ RC ----

// First-order RC lowpass driven from an ideal source: the only noise source
// is the resistor, and every quantity has a closed form.
//   |H(f)|          = 1 / sqrt(1 + (2 pi f R C)^2)
//   S_out(f)        = 4 k T R / (1 + (2 pi f R C)^2)
//   integral(f1,f2) = (2 k T / (pi C)) (atan x2 - atan x1),  x = 2 pi f R C
TEST(AcNoise, RcLowpassMatchesClosedForm) {
  const double r = 10e3;
  const double c = 1e-12;

  Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add_vsource("VIN", in, Circuit::ground(), Waveform::dc(0.5));
  ckt.add_resistor("R1", in, out, r);
  ckt.add_capacitor("C1", out, Circuit::ground(), c);

  const SimulatorOptions options{};
  Simulator sim(ckt, options);
  const OpResult op = sim.operating_point();
  ASSERT_TRUE(op.converged);

  AcNoiseSpec spec;
  spec.input = "VIN";
  spec.output_pos = "out";
  spec.f_start = 1e4;
  spec.f_stop = 1e10;
  spec.points_per_decade = 16;
  spec.temp_k = 300.0;
  const NoiseResult nr = noise_analysis(ckt, op, spec, options);
  ASSERT_TRUE(nr.ok) << nr.message;
  ASSERT_EQ(nr.freq.size(), nr.gain_mag.size());
  ASSERT_EQ(nr.freq.size(), nr.output_psd.size());

  const double kT = units::kBoltzmann * spec.temp_k;
  // The per-frequency solves are exact (no integration involved).
  for (std::size_t i = 0; i < nr.freq.size(); ++i) {
    const double x = 2.0 * M_PI * nr.freq[i] * r * c;
    const double h = 1.0 / std::sqrt(1.0 + x * x);
    EXPECT_NEAR(nr.gain_mag[i], h, 1e-6 * h) << "f = " << nr.freq[i];
    const double psd = 4.0 * kT * r * h * h;
    EXPECT_NEAR(nr.output_psd[i], psd, 1e-6 * psd) << "f = " << nr.freq[i];
  }
  EXPECT_NEAR(nr.gain_ref, 1.0, 1e-4);

  // The integral carries the trapezoid-on-log-grid error; 16 points/decade
  // keeps it well under 1%.
  const double x1 = 2.0 * M_PI * spec.f_start * r * c;
  const double x2 = 2.0 * M_PI * spec.f_stop * r * c;
  const double vn2 = 2.0 * kT / (M_PI * c) * (std::atan(x2) - std::atan(x1));
  EXPECT_NEAR(nr.output_noise_vrms * nr.output_noise_vrms, vn2, 0.01 * vn2);

  // No MOSFETs: all of it is thermal, none flicker.
  EXPECT_DOUBLE_EQ(nr.flicker_vrms, 0.0);
  EXPECT_DOUBLE_EQ(nr.thermal_vrms, nr.output_noise_vrms);
}

// ------------------------------------------------------- CS amplifier ----

/// Resistor-loaded common-source NMOS stage biased in saturation.
struct CsAmp {
  Circuit ckt;
  pdk::MosParams params;
  double w = 0.5e-6;
  double l = 120e-9;
  double rd = 20e3;
  double vbias = 0.0;

  CsAmp() {
    params = pdk::mos_params(false, pdk::typical_corner(), l);
    vbias = params.vth + 0.15;  // ~16 uA: IR drop leaves the drain in saturation
    const auto vdd = ckt.node("vdd");
    const auto g = ckt.node("g");
    const auto d = ckt.node("d");
    ckt.add_vsource("VDD", vdd, Circuit::ground(), Waveform::dc(1.2));
    ckt.add_vsource("VIN", g, Circuit::ground(), Waveform::dc(vbias));
    ckt.add_resistor("RD", vdd, d, rd);
    ckt.add_mosfet("M1", d, g, Circuit::ground(), params, w, l);
  }
};

TEST(AcNoise, CommonSourceAmpMatchesLinearization) {
  CsAmp amp;
  const SimulatorOptions options{};
  Simulator sim(amp.ckt, options);
  const OpResult op = sim.operating_point();
  ASSERT_TRUE(op.converged);
  const double vd = op.node_voltages[amp.ckt.find_node("d")];
  ASSERT_GT(vd, amp.vbias - amp.params.vth);  // saturation

  AcNoiseSpec spec;
  spec.input = "VIN";
  spec.output_pos = "d";
  spec.f_start = 1e5;
  spec.f_stop = 1e9;
  spec.temp_k = amp.params.temp_k;  // one temperature for every source
  const NoiseResult nr = noise_analysis(amp.ckt, op, spec, options);
  ASSERT_TRUE(nr.ok) << nr.message;

  // Hand-stamped small-signal model from the same linearization the Newton
  // loop uses (gmin appears in parallel with the output in the AC system).
  const NmosEval e =
      nmos_channel(MosModel::kLevel1, amp.params, amp.w / amp.l, amp.vbias, vd);
  const double gout = 1.0 / amp.rd + e.gds + options.gmin;
  const double rout = 1.0 / gout;
  const double gain = e.gm * rout;
  EXPECT_NEAR(nr.gain_ref, gain, 1e-4 * gain);

  // Flat-band circuit (no capacitors): per-point PSD is channel thermal +
  // load thermal + channel flicker through the same output resistance.
  const double kT = units::kBoltzmann * spec.temp_k;
  const double thermal_i = 4.0 * kT * (amp.params.gamma_n * e.gm + e.gds) + 4.0 * kT / amp.rd;
  const double flicker_i = amp.params.kf * std::pow(e.id, amp.params.af);
  for (std::size_t i = 0; i < nr.freq.size(); ++i) {
    const double psd = (thermal_i + flicker_i / nr.freq[i]) * rout * rout;
    EXPECT_NEAR(nr.output_psd[i], psd, 1e-3 * psd) << "f = " << nr.freq[i];
  }

  // Input-referred = output / gain by definition.
  EXPECT_NEAR(nr.input_noise_vrms, nr.output_noise_vrms / nr.gain_ref,
              1e-12 * nr.input_noise_vrms);
}

// The thermal/flicker decomposition is a partition of the same integral:
// thermal^2 + flicker^2 == total^2 holds by linearity, not approximately.
TEST(AcNoise, FunnelInvariantPartitionsTotalNoise) {
  CsAmp amp;
  const SimulatorOptions options{};
  Simulator sim(amp.ckt, options);
  const OpResult op = sim.operating_point();
  ASSERT_TRUE(op.converged);

  AcNoiseSpec spec;
  spec.input = "VIN";
  spec.output_pos = "d";
  spec.f_start = 1e3;  // low start so flicker actually contributes
  spec.f_stop = 1e9;
  spec.temp_k = amp.params.temp_k;
  const NoiseResult nr = noise_analysis(amp.ckt, op, spec, options);
  ASSERT_TRUE(nr.ok) << nr.message;

  EXPECT_GT(nr.thermal_vrms, 0.0);
  EXPECT_GT(nr.flicker_vrms, 0.0);
  const double total2 = nr.output_noise_vrms * nr.output_noise_vrms;
  const double parts2 =
      nr.thermal_vrms * nr.thermal_vrms + nr.flicker_vrms * nr.flicker_vrms;
  EXPECT_NEAR(parts2, total2, 1e-9 * total2);
}

// The EKV pass works on both channel models: same circuit, ekv OP and ekv
// small-signal conductances, finite positive noise.
TEST(AcNoise, RunsOnEkvOperatingPoint) {
  CsAmp amp;
  SimulatorOptions options;
  options.mos_model = MosModel::kEkv;
  Simulator sim(amp.ckt, options);
  const OpResult op = sim.operating_point();
  ASSERT_TRUE(op.converged);

  AcNoiseSpec spec;
  spec.input = "VIN";
  spec.output_pos = "d";
  spec.temp_k = amp.params.temp_k;
  const NoiseResult nr = noise_analysis(amp.ckt, op, spec, options);
  ASSERT_TRUE(nr.ok) << nr.message;
  EXPECT_TRUE(std::isfinite(nr.input_noise_vrms));
  EXPECT_GT(nr.input_noise_vrms, 0.0);
  EXPECT_GT(nr.gain_ref, 1.0);  // still an amplifier under ekv
}

// ------------------------------------------------------------ channels ----

// Deep in strong inversion the softplus terms are linear to within
// exp(-z), so the EKV interpolation collapses onto the square law.  Points
// are chosen with every half-charge argument above ~8 characteristic
// voltages, which puts the analytic disagreement below 0.1%.
TEST(MosModels, EkvMatchesLevel1InStrongInversion) {
  const pdk::MosParams p = pdk::mos_params(false, pdk::typical_corner(), 100e-9);
  const double w_over_l = 10.0;
  struct Point {
    double vgs, vds;
  };
  const Point points[] = {
      {p.vth + 0.6, 1.0},   // saturation
      {p.vth + 0.8, 0.2},   // triode
      {p.vth + 0.7, 0.05},  // deep triode (pass-gate-like)
  };
  for (const auto& pt : points) {
    const NmosEval l1 = nmos_channel(MosModel::kLevel1, p, w_over_l, pt.vgs, pt.vds);
    const NmosEval ekv = nmos_channel(MosModel::kEkv, p, w_over_l, pt.vgs, pt.vds);
    EXPECT_NEAR(ekv.id, l1.id, 1e-3 * std::abs(l1.id)) << "vgs " << pt.vgs << " vds " << pt.vds;
    EXPECT_NEAR(ekv.gm, l1.gm, 1e-3 * std::abs(l1.gm)) << "vgs " << pt.vgs << " vds " << pt.vds;
    EXPECT_NEAR(ekv.gds, l1.gds, 1e-3 * std::abs(l1.gds))
        << "vgs " << pt.vgs << " vds " << pt.vds;
  }
}

// Below threshold Level-1 is dead while EKV conducts with the subthreshold
// slope gm = Id / (n vt) — the property the cold low-voltage corner needs.
TEST(MosModels, EkvConductsInWeakInversion) {
  const pdk::MosParams p = pdk::mos_params(false, pdk::typical_corner(), 100e-9);
  const double w_over_l = 10.0;
  const double vgs = p.vth - 0.2;  // ~3 v_char below threshold: sig/sp within 3% of 1
  const NmosEval l1 = nmos_channel(MosModel::kLevel1, p, w_over_l, vgs, 0.5);
  const NmosEval ekv = nmos_channel(MosModel::kEkv, p, w_over_l, vgs, 0.5);
  EXPECT_EQ(l1.id, 0.0);
  EXPECT_GT(ekv.id, 0.0);
  EXPECT_GT(ekv.gm, 0.0);
  EXPECT_GT(ekv.gds, 0.0);  // the reverse half-charge keeps gds alive
  const double n_vt = pdk::kEkvSlopeFactor * units::thermal_voltage(p.temp_k);
  EXPECT_NEAR(ekv.gm, ekv.id / n_vt, 0.05 * ekv.gm);
}

}  // namespace
}  // namespace glova::spice
