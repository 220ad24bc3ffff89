// DRAM OCSA + subhole SPICE testbench: open-bitline sensing of one cell
// through the MNA engine, one transient per stored data polarity.
//
// Netlist (per read):
//   * cell cap written to its stored level through a boosted write switch
//     (on at DC, off before the wordline rises), then shared onto the
//     bitline through a boosted access NMOS;
//   * bl/blb precharged to vdd/2 through the OC switches (their sized
//     geometry sets the precharge drive and injection charge);
//   * cross-coupled NMOS/PMOS sense amplifier with per-SA-share subhole
//     drivers: the shared NSA/PSA devices are scaled by 1/n_shared_sa and
//     drive per-SA SAN/SAP rail capacitance, which keeps the single-SA
//     netlist equivalent to one slice of the 512-SA subhole;
//   * a column-select device reads the settled bitline onto a local IO cap.
//
// Offset cancellation is modeled at netlist-construction time: the OC phase
// stores the cross-pair offset on the bitlines, so the pair's Vth mismatch
// is scaled by (1 - k_oc) and the switch injection pedestal is applied as a
// differential split of the precharge levels opposing the read signal —
// the same residual-offset accounting as the behavioral model, but the
// charge sharing and regeneration themselves are solved by the simulator.
//
// Measurement extraction (Table II metrics):
//   * dVD0 / dVD1 — differential bitline voltage t_overlap after sense
//     enable, clamped to the behavioral regeneration cap (1 + gain_cap)
//     times the pre-sense signal, floored near zero when the SA resolves
//     the wrong way;
//   * energy per bit — measured VDD supply energy plus recharge accounting
//     for the bitline/cell restore (spice::capacitor_recharge_energy) and
//     the amortized shared-driver overhead, averaged over both polarities.
#include "circuits/spice_backend.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "circuits/parasitics.hpp"
#include "common/units.hpp"
#include "pdk/mos_params.hpp"
#include "spice/measure.hpp"

namespace glova::circuits {

namespace {
// Testbench timing: write switch opens, precharge releases, wordline rises,
// sense amplifier enables, column select reads out.
constexpr double kTWrOff = 0.15e-9;
constexpr double kTPeqOff = 0.25e-9;
constexpr double kTWl = 0.5e-9;
constexpr double kTSense = 2.0e-9;
constexpr double kTCsl = 2.8e-9;
constexpr double kTStop = 3.5e-9;
constexpr double kDt = 2.0e-12;
constexpr double kEdge = 50e-12;
// Wordline / switch-gate boost above vdd (passes full levels).
constexpr double kBoost = 0.45;
// Fixed (non-sized) cell-access and write-switch geometry.
constexpr double kAccessW = 0.28e-6;
constexpr double kAccessL = 50e-9;
constexpr double kWriteW = 1e-6;
constexpr double kWriteL = 30e-9;
}  // namespace

DramOcsaSubholeSpice::DramOcsaSubholeSpice() = default;

spice::Circuit DramOcsaSubholeSpice::build_netlist(std::span<const double> x,
                                                   const pdk::PvtCorner& corner,
                                                   std::span<const double> h,
                                                   bool data_one) const {
  if (x.size() != DramSizing::kCount) throw std::invalid_argument("DRAM spice: bad sizing vector");
  if (!h.empty() && h.size() != kDramDeviceCount * 2 + kDramArrayCoords) {
    throw std::invalid_argument("DRAM spice: bad mismatch vector");
  }
  const Parasitics& par = parasitics_28nm();
  const DramConditions& cond = behavioral_.conditions();
  const double vdd = corner.vdd;
  const double vpp = vdd + kBoost;
  const auto dvth = [&](std::size_t d) { return h.empty() ? 0.0 : h[2 * d]; };
  const auto dbeta = [&](std::size_t d) { return h.empty() ? 0.0 : h[2 * d + 1]; };
  const double dvcell = h.empty() ? 0.0 : h[kDramIdxVcell];

  // Array capacitances and the stored level (same spreads as behavioral).
  const auto [cs, cbl] = dram_array_caps(cond, x, h);
  const double vpre = 0.5 * vdd;
  const double vcell = (data_one ? cond.v1_frac : cond.v0_frac) * vdd + dvcell;

  // Offset cancellation: the cross-pair Vth mismatch survives only by
  // (1 - k_oc); the OC switches' injection pedestal splits the precharge
  // levels against the read signal (bl carries the signal for '1', blb
  // effectively for '0').
  const double k_oc = x[DramSizing::kWOcs] / (x[DramSizing::kWOcs] + cond.oc_half_width);
  const double inj_mismatch = h.empty() ? 0.0 : 0.1 * std::abs(h[2 * 4] - h[2 * 5]);
  const double v_inj =
      0.2 * par.cox * x[DramSizing::kWOcs] * x[DramSizing::kLOcs] * vdd / cbl + inj_mismatch;
  const double pedestal = (data_one ? -0.5 : 0.5) * v_inj;

  spice::Circuit ckt;
  const auto vdd_n = ckt.node("vdd");
  const auto bl = ckt.node("bl");
  const auto blb = ckt.node("blb");
  const auto cell = ckt.node("cell");
  const auto san = ckt.node("san");
  const auto sap = ckt.node("sap");
  const auto lio = ckt.node("lio");
  const auto wl = ckt.node("wl");
  const auto peq = ckt.node("peq");
  const auto wr = ckt.node("wr");
  const auto sen = ckt.node("sen");
  const auto senb = ckt.node("senb");
  const auto csl = ckt.node("csl");
  const auto blp_a = ckt.node("blp_a");
  const auto blp_b = ckt.node("blp_b");
  const auto vcell_n = ckt.node("vcell");
  const auto gnd = spice::Circuit::ground();

  ckt.add_vsource("VDD", vdd_n, gnd, spice::Waveform::dc(vdd));
  ckt.add_vsource("VBLPA", blp_a, gnd, spice::Waveform::dc(vpre + pedestal));
  ckt.add_vsource("VBLPB", blp_b, gnd, spice::Waveform::dc(vpre - pedestal));
  ckt.add_vsource("VCELL", vcell_n, gnd, spice::Waveform::dc(vcell));
  ckt.add_vsource("VWR", wr, gnd,
                  spice::Waveform::pulse(vpp, 0.0, kTWrOff, kEdge, kEdge, 1.0, 0.0));
  ckt.add_vsource("VPEQ", peq, gnd,
                  spice::Waveform::pulse(vpp, 0.0, kTPeqOff, kEdge, kEdge, 1.0, 0.0));
  ckt.add_vsource("VWL", wl, gnd,
                  spice::Waveform::pulse(0.0, vpp, kTWl, kEdge, kEdge, 1.0, 0.0));
  // The subhole enable ramps over cond.t_ramp (the kickback-relevant edge).
  ckt.add_vsource("VSEN", sen, gnd,
                  spice::Waveform::pulse(0.0, vdd, kTSense, cond.t_ramp, cond.t_ramp, 1.0, 0.0));
  ckt.add_vsource("VSENB", senb, gnd,
                  spice::Waveform::pulse(vdd, 0.0, kTSense, cond.t_ramp, cond.t_ramp, 1.0, 0.0));
  ckt.add_vsource("VCSL", csl, gnd,
                  spice::Waveform::pulse(0.0, vdd, kTCsl, kEdge, kEdge, 1.0, 0.0));

  // Device instance order matches DramOcsaSubhole::devices():
  //   0-1 cross NMOS, 2-3 cross PMOS, 4-5 OC switches, 6 csel, 7 nsa, 8 psa.
  // Terminal assignment preserves the behavioral sign convention (positive
  // residual cross-pair offset favors reading '0'): instance "a" of the
  // NMOS discharges BLB (a slower a-device keeps BLB high, helping '0'),
  // while instance "a" of the PMOS restores BL (a slower a-device lets BL
  // fall, also helping '0').
  const double oc_residual = 1.0 - k_oc;
  const auto mos = [&](std::size_t d, bool pmos, std::size_t li, double vth_scale) {
    return pdk::mos_params(pmos, corner, x[li], vth_scale * dvth(d), dbeta(d));
  };
  ckt.add_mosfet("Mxn_a", blb, bl, san, mos(0, false, DramSizing::kLXn, oc_residual),
                 x[DramSizing::kWXn], x[DramSizing::kLXn]);
  ckt.add_mosfet("Mxn_b", bl, blb, san, mos(1, false, DramSizing::kLXn, oc_residual),
                 x[DramSizing::kWXn], x[DramSizing::kLXn]);
  ckt.add_mosfet("Mxp_a", bl, blb, sap, mos(2, true, DramSizing::kLXp, oc_residual),
                 x[DramSizing::kWXp], x[DramSizing::kLXp]);
  ckt.add_mosfet("Mxp_b", blb, bl, sap, mos(3, true, DramSizing::kLXp, oc_residual),
                 x[DramSizing::kWXp], x[DramSizing::kLXp]);
  ckt.add_mosfet("Mocs_a", bl, peq, blp_a, mos(4, false, DramSizing::kLOcs, 1.0),
                 x[DramSizing::kWOcs], x[DramSizing::kLOcs]);
  ckt.add_mosfet("Mocs_b", blb, peq, blp_b, mos(5, false, DramSizing::kLOcs, 1.0),
                 x[DramSizing::kWOcs], x[DramSizing::kLOcs]);
  ckt.add_mosfet("Mcsel", lio, csl, bl, mos(6, false, DramSizing::kLCsel, 1.0),
                 x[DramSizing::kWCsel], x[DramSizing::kLCsel]);
  // Subhole drivers: per-SA share of the 512-way shared devices.
  const double sa_share = 1.0 / cond.n_shared_sa;
  ckt.add_mosfet("Mnsa", san, sen, gnd, mos(7, false, DramSizing::kLNsa, 1.0),
                 x[DramSizing::kWNsa] * sa_share, x[DramSizing::kLNsa]);
  ckt.add_mosfet("Mpsa", sap, senb, vdd_n, mos(8, true, DramSizing::kLPsa, 1.0),
                 x[DramSizing::kWPsa] * sa_share, x[DramSizing::kLPsa]);
  // Cell access and write infrastructure (fixed geometry, nominal params —
  // the cell-array statistics enter through dvcell/dcs/dcbl instead).
  const auto acc_n = pdk::mos_params(false, corner, kAccessL);
  const auto wr_n = pdk::mos_params(false, corner, kWriteL);
  ckt.add_mosfet("Macc", bl, wl, cell, acc_n, kAccessW, kAccessL);
  ckt.add_mosfet("Mwr", cell, wr, vcell_n, wr_n, kWriteW, kWriteL);

  ckt.add_capacitor("Cs", cell, gnd, cs);
  ckt.add_capacitor("Cbl", bl, gnd, cbl);
  ckt.add_capacitor("Cblb", blb, gnd, cbl);
  // Per-SA share of the SAN/SAP rail load (matches the behavioral c_san).
  const double c_rail = cond.c_san_fixed +
                        0.5 * par.c_junction * (x[DramSizing::kWXn] + x[DramSizing::kWXp]);
  ckt.add_capacitor("Csan", san, gnd, c_rail);
  ckt.add_capacitor("Csap", sap, gnd, c_rail);
  ckt.add_capacitor("Clio", lio, gnd, 1e-15 + par.c_junction * x[DramSizing::kWCsel]);
  return ckt;
}

namespace {
spice::TransientSpec dram_transient_spec() {
  spice::TransientSpec spec;
  spec.t_stop = kTStop;
  spec.dt = kDt;
  spec.record = {"bl", "blb", "cell"};
  return spec;
}
}  // namespace

std::pair<double, double> DramOcsaSubholeSpice::polarity_margin_energy(
    const spice::TransientResult& res, std::span<const double> x, const pdk::PvtCorner& corner,
    std::span<const double> h, bool data_one) const {
  const DramConditions& cond = behavioral_.conditions();
  const double vdd = corner.vdd;
  const double vpre = 0.5 * vdd;
  const auto [cs, cbl] = dram_array_caps(cond, x, h);
  const auto& t = res.times;

  // Sensing margin: differential bitline voltage t_overlap after sense
  // enable, signed so the correct read direction is positive, clamped to
  // the behavioral regeneration cap and floored when the SA resolves the
  // wrong way.
  const std::vector<double> diff = spice::difference(res.trace("bl"), res.trace("blb"));
  const double sign = data_one ? 1.0 : -1.0;
  const double signal = sign * spice::value_at(t, diff, kTSense);
  const double developed = sign * spice::value_at(t, diff, kTSense + cond.t_overlap);
  double margin = developed;
  if (signal > 0.0) margin = std::min(margin, (1.0 + cond.gain_cap) * signal);

  // Energy: measured VDD delivery (PSA rail charge + regeneration +
  // restore-high) plus recharge accounting for the precharge phase this
  // testbench does not simulate — the vdd/2 rail pulling each split
  // bitline and the restored cell back to the precharge level.
  double e_read = std::max(0.0, spice::supply_energy(t, res.trace("I(VDD)"), vdd, 0.0, kTStop));
  e_read += spice::capacitor_recharge_energy(cbl, vpre, res.trace("bl").back(), vpre);
  e_read += spice::capacitor_recharge_energy(cbl, vpre, res.trace("blb").back(), vpre);
  e_read += spice::capacitor_recharge_energy(cs, vpre, res.trace("cell").back(), vpre);
  return {std::max(1e-6, margin), e_read};
}

double DramOcsaSubholeSpice::driver_overhead_energy(std::span<const double> x,
                                                    const pdk::PvtCorner& corner,
                                                    std::span<const double> h) const {
  // The shared-driver overhead is an amortized analytic term (gate charge +
  // enable-ramp crowbar of the 512-way subhole devices, 64 activated bits
  // per driver pair — the per-SA netlist only carries its 1/512 share).
  const DramConditions& cond = behavioral_.conditions();
  const Parasitics& par = parasitics_28nm();
  const double vdd = corner.vdd;
  const double temp_k = corner.temp_k();
  const auto p_nsa = pdk::mos_params(false, corner, x[DramSizing::kLNsa],
                                     h.empty() ? 0.0 : h[2 * 7], h.empty() ? 0.0 : h[2 * 7 + 1]);
  const auto p_psa = pdk::mos_params(true, corner, x[DramSizing::kLPsa],
                                     h.empty() ? 0.0 : h[2 * 8], h.empty() ? 0.0 : h[2 * 8 + 1]);
  const double i_nsa = pdk::ekv_id(p_nsa, x[DramSizing::kWNsa] / x[DramSizing::kLNsa], vdd,
                                   0.3 * vdd, temp_k);
  const double i_psa = pdk::ekv_id(p_psa, x[DramSizing::kWPsa] / x[DramSizing::kLPsa], vdd,
                                   0.3 * vdd, temp_k);
  return (par.cox * (x[DramSizing::kWNsa] * x[DramSizing::kLNsa] +
                     x[DramSizing::kWPsa] * x[DramSizing::kLPsa]) *
              vdd * vdd +
          0.01 * (i_nsa + i_psa) * cond.t_ramp * vdd) /
         cond.n_shared_sa * 64.0;  // 64 activated bits share one driver pair
}

std::vector<double> DramOcsaSubholeSpice::evaluate(std::span<const double> x,
                                                   const pdk::PvtCorner& corner,
                                                   std::span<const double> h) const {
  if (x.size() != DramSizing::kCount) throw std::invalid_argument("DRAM spice: bad sizing vector");
  if (!h.empty() && h.size() != kDramDeviceCount * 2 + kDramArrayCoords) {
    throw std::invalid_argument("DRAM spice: bad mismatch vector");
  }

  double dvd[2] = {1e-6, 1e-6};  // [data0, data1]
  double energy_sum = 0.0;
  for (const bool data_one : {false, true}) {
    const spice::Circuit ckt = build_netlist(x, corner, h, data_one);
    spice::Simulator sim(ckt, spice::current_context().options);
    const spice::TransientSpec spec = dram_transient_spec();
    const spice::TransientResult res = sim.transient(spec);
    if (!res.ok) {
      // A non-convergent design fails every constraint: vanishing sensing
      // margins and an enormous energy; the structured report lets the
      // engine retry or degrade instead of accepting the penalty.
      throw EvaluationError(evaluation_failure_from(res.failure), {1e-6, 1e-6, 1.0});
    }
    const auto [margin, e_read] = polarity_margin_energy(res, x, corner, h, data_one);
    dvd[data_one ? 1 : 0] = margin;
    energy_sum += e_read;
  }

  const double energy = 0.5 * energy_sum + driver_overhead_energy(x, corner, h);
  return {dvd[0], dvd[1], energy};
}

}  // namespace glova::circuits
