// MOSFET channel linearizations used by the Newton loop (simulator.cpp) and
// the small-signal AC pass (ac.cpp).
//
// Two channel models live here behind the same linearization interface:
//   - Level-1 square law (default): hard cutoff below Vth, the historical
//     model every pinned baseline was recorded against.
//   - EKV-style continuous model (`MosModel::kEkv`): forward-minus-reverse
//     softplus interpolation with characteristic voltage 2*n*vt, so the
//     channel conducts continuously from weak through strong inversion and
//     gm/gds stay consistent analytic derivatives of Id.  See
//     docs/architecture.md#mos-models.
#pragma once

#include <cmath>

#include "common/units.hpp"
#include "pdk/mos_params.hpp"

namespace glova::spice {

/// Channel model selector (SimulatorOptions::mos_model, RunSpec `mos_model`).
enum class MosModel : unsigned char {
  kLevel1 = 0,  ///< square law with hard sub-Vth cutoff
  kEkv = 1,     ///< continuous weak/strong-inversion interpolation
};

/// Linearized MOSFET: drain-to-source current and its partial derivatives
/// with respect to the gate, drain and source node voltages.
struct MosLinearization {
  double i_ds = 0.0;
  double d_vg = 0.0;
  double d_vd = 0.0;
  double d_vs = 0.0;
};

/// Square-law evaluation for an NMOS-oriented channel (vds >= 0 assumed by
/// the caller): returns current and (gm, gds).
struct NmosEval {
  double id = 0.0;
  double gm = 0.0;
  double gds = 0.0;
};

inline NmosEval nmos_square_law(const pdk::MosParams& p, double w_over_l, double vgs, double vds) {
  NmosEval e;
  const double vov = vgs - p.vth;
  // Cutoff is a gate condition only.  vds == 0 must land in the triode
  // branch: the current is zero there but the channel conductance is
  // k*Vov, and stamping gds = 0 instead starves Newton of the very
  // derivative it needs to move a pass-gate node off equal bias.
  if (vov <= 0.0) return e;  // cutoff
  const double k = p.kp * w_over_l;
  if (vds < vov) {
    // Triode region.
    const double clm = 1.0 + p.lambda * vds;
    e.id = k * (vov - 0.5 * vds) * vds * clm;
    e.gm = k * vds * clm;
    e.gds = k * ((vov - vds) * clm + (vov - 0.5 * vds) * vds * p.lambda);
  } else {
    // Saturation.
    const double clm = 1.0 + p.lambda * vds;
    e.id = 0.5 * k * vov * vov * clm;
    e.gm = k * vov * clm;
    e.gds = 0.5 * k * vov * vov * p.lambda;
  }
  return e;
}

/// EKV-style continuous evaluation (vds >= 0 assumed by the caller), in the
/// forward-minus-reverse interpolation form:
///
///   Id = (k/2) * v_char^2 * [sp(zf)^2 - sp(zr)^2] * (1 + lambda*vds)
///   zf = (Vgs - Vth) / v_char,  zr = (Vgs - Vth - Vds) / v_char
///
/// with sp = softplus (ln(1+e^z)) and v_char = 2*n*vt.  Strong inversion
/// recovers the square law exactly in triode and to well under 0.1% in
/// saturation (the reverse term decays as e^(2*zr)); weak inversion gives
/// the exponential characteristic with gm = Id/(n*vt).
///
/// The forward-minus-reverse split — rather than a smoothed overdrive
/// bolted onto the square-law branch structure — is what keeps Newton
/// stable: *both* terminal derivatives stay exponentially alive through
/// weak inversion, so gds never collapses to the bare lambda slope.  (A
/// smoothed-overdrive variant leaves a reverse-saturated weak channel with
/// gds ~ lambda*Id ~ 1e-11 S next to an exponential forward slope; Newton
/// then limit-cycles across the source/drain swap point — observed on the
/// SAL amplify-phase operating point.)
inline NmosEval nmos_ekv(const pdk::MosParams& p, double w_over_l, double vgs, double vds) {
  NmosEval e;
  const double v_char = 2.0 * pdk::kEkvSlopeFactor * units::thermal_voltage(p.temp_k);
  const auto half_charge = [](double z, double& sp, double& sig) {
    if (z > 30.0) {
      sp = z;
      sig = 1.0;
    } else if (z < -30.0) {
      sp = std::exp(z);
      sig = sp;
    } else {
      const double ez = std::exp(z);
      sp = std::log1p(ez);
      sig = ez / (1.0 + ez);
    }
  };
  double spf;
  double sigf;
  double spr;
  double sigr;
  half_charge((vgs - p.vth) / v_char, spf, sigf);
  half_charge((vgs - p.vth - vds) / v_char, spr, sigr);
  const double k = p.kp * w_over_l;
  const double clm = 1.0 + p.lambda * vds;
  const double i0 = 0.5 * k * v_char * v_char * (spf * spf - spr * spr);
  e.id = i0 * clm;
  e.gm = k * v_char * (spf * sigf - spr * sigr) * clm;
  e.gds = k * v_char * spr * sigr * clm + i0 * p.lambda;
  return e;
}

/// Channel evaluation dispatch.  Level-1 keeps the exact historical
/// expressions; the branch is on a plan-constant enum so the kernel TUs
/// hoist it out of the device loop.
inline NmosEval nmos_channel(MosModel model, const pdk::MosParams& p, double w_over_l,
                             double vgs, double vds) {
  if (model == MosModel::kEkv) return nmos_ekv(p, w_over_l, vgs, vds);
  return nmos_square_law(p, w_over_l, vgs, vds);
}

/// NMOS including source/drain swap for vds < 0 (the channel is symmetric).
inline MosLinearization nmos_linearize(MosModel model, const pdk::MosParams& p, double w_over_l,
                                       double vg, double vd, double vs) {
  MosLinearization lin;
  if (vd >= vs) {
    const NmosEval e = nmos_channel(model, p, w_over_l, vg - vs, vd - vs);
    lin.i_ds = e.id;
    lin.d_vg = e.gm;
    lin.d_vd = e.gds;
    lin.d_vs = -(e.gm + e.gds);
  } else {
    // Swapped: physical source terminal acts as the channel drain.
    const NmosEval e = nmos_channel(model, p, w_over_l, vg - vd, vs - vd);
    lin.i_ds = -e.id;
    lin.d_vg = -e.gm;
    lin.d_vs = -e.gds;
    lin.d_vd = e.gm + e.gds;
  }
  return lin;
}

/// Full linearization covering both polarities.  PMOS devices are evaluated
/// as NMOS on mirrored voltages; the mirror flips the current sign while the
/// chain rule cancels the sign on the derivatives.  w_over_l is passed in so
/// the plan can hoist the division out of the Newton loop.
inline MosLinearization mos_linearize(MosModel model, const pdk::MosParams& params,
                                      double w_over_l, double vg, double vd, double vs) {
  if (!params.is_pmos) {
    return nmos_linearize(model, params, w_over_l, vg, vd, vs);
  }
  const MosLinearization mirrored = nmos_linearize(model, params, w_over_l, -vg, -vd, -vs);
  MosLinearization lin;
  lin.i_ds = -mirrored.i_ds;
  lin.d_vg = mirrored.d_vg;
  lin.d_vd = mirrored.d_vd;
  lin.d_vs = mirrored.d_vs;
  return lin;
}

/// Drain-to-source current only (branch-current recovery at pinned nodes,
/// the KCL residual behind failure reports).
inline double mos_current(MosModel model, const pdk::MosParams& params, double w_over_l,
                          double vg, double vd, double vs) {
  return mos_linearize(model, params, w_over_l, vg, vd, vs).i_ds;
}

}  // namespace glova::spice
