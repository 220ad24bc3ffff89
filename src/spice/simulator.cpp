#include "spice/simulator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "spice/counters.hpp"
#include "spice/mos_model.hpp"

namespace glova::spice {

// ---------------------------------------------------------------------------
// Evaluation context

namespace {
thread_local const EvalContext* t_context = nullptr;
thread_local const FaultPlan* t_fault_plan = nullptr;
}  // namespace

const EvalContext& current_context() {
  static const EvalContext cold;
  return t_context != nullptr ? *t_context : cold;
}

ScopedEvalContext::ScopedEvalContext(const EvalContext& context) : previous_(t_context) {
  t_context = &context;
}

ScopedEvalContext::~ScopedEvalContext() { t_context = previous_; }

SimulatorOptions escalate_recovery(SimulatorOptions options, int level) {
  if (level >= 1) options.recovery.enabled = true;
  if (level >= 2) {
    options.recovery.gmin_start = 1e-2;
    options.recovery.max_gmin_rungs = 16;
    options.recovery.max_step_cuts = 5;
    options.recovery.dc_restart_attempts = 2;
  }
  return options;
}

// ---------------------------------------------------------------------------
// Failure taxonomy and deterministic fault injection

const char* to_string(FailureStage stage) {
  switch (stage) {
    case FailureStage::None: return "none";
    case FailureStage::Setup: return "setup";
    case FailureStage::DcOperatingPoint: return "dc-operating-point";
    case FailureStage::TransientNewton: return "transient-newton";
    case FailureStage::Timestep: return "timestep";
    case FailureStage::Deadline: return "deadline";
  }
  return "none";
}

std::string FailureReport::to_string() const {
  if (stage == FailureStage::None) return {};
  if (stage == FailureStage::Setup) return message;
  char head[192];
  switch (stage) {
    case FailureStage::DcOperatingPoint:
      std::snprintf(head, sizeof head, "transient: DC operating point failed to converge");
      break;
    case FailureStage::TransientNewton:
      std::snprintf(head, sizeof head, "transient: Newton failed at t = %.6g s", time);
      break;
    case FailureStage::Timestep:
      std::snprintf(head, sizeof head,
                    "transient: Newton failed at t = %.6g s with dt already at dt_min", time);
      break;
    case FailureStage::Deadline:
      std::snprintf(head, sizeof head,
                    "transient: Newton-iteration deadline exceeded at t = %.6g s", time);
      break;
    default:
      head[0] = '\0';
      break;
  }
  std::string out = head;
  if (attempts > 0 || !worst_node.empty()) {
    char detail[160];
    if (!worst_node.empty()) {
      std::snprintf(detail, sizeof detail, " (recovery attempts: %d; worst residual %.3g A at %s)",
                    attempts, final_residual, worst_node.c_str());
    } else {
      std::snprintf(detail, sizeof detail, " (recovery attempts: %d)", attempts);
    }
    out += detail;
  }
  if (!message.empty()) out += " [" + message + "]";
  return out;
}

const FaultPlan::Site* FaultPlan::match(std::uint64_t index) const {
  for (const Site& s : sites) {
    if (index >= s.begin && index < s.end) return &s;
  }
  return nullptr;
}

void set_thread_fault_plan(const FaultPlan* plan) { t_fault_plan = plan; }
const FaultPlan* thread_fault_plan() { return t_fault_plan; }

namespace {

/// Human-readable label for one row of the solved system: the node name for
/// unknown-node rows, "branch <k>" for branch-current rows.
[[nodiscard]] std::string row_label(const Circuit& circuit, const StampPlan& plan,
                                    std::size_t row) {
  if (row < plan.unknown_node_count()) {
    for (NodeId nd = 1; nd < circuit.node_count(); ++nd) {
      if (plan.node_is_unknown(nd) && plan.x_slot(nd) == row) return circuit.node_name(nd);
    }
  }
  return "branch " + std::to_string(row);
}

/// Fill `report`'s residual fields from the last failed Newton iterate `x`:
/// computes the true KCL residual (plan state must still be the failing
/// solve's begin_solve) and records the worst row's magnitude and label.
void note_worst_residual(const Circuit& circuit, StampPlan& plan, std::span<const double> x,
                         FailureReport& report) {
  const std::size_t n = plan.unknown_count();
  std::vector<double> r(n + 1, 0.0);
  plan.residual(x, r);
  std::size_t worst = 0;
  double worst_abs = 0.0;
  for (std::size_t row = 0; row < n; ++row) {
    const double a = std::abs(r[row]);
    if (a > worst_abs) {
      worst_abs = a;
      worst = row;
    }
  }
  report.final_residual = worst_abs;
  report.worst_node = row_label(circuit, plan, worst);
}

}  // namespace

// ---------------------------------------------------------------------------
// TransientResult

const Trace* TransientResult::find_trace(const std::string& name) const {
  // Lazily build (and rebuild after appends) the name -> index map; callers
  // like the measurement layer look traces up once per metric.
  if (trace_index_.size() != traces.size()) {
    trace_index_.clear();
    trace_index_.reserve(traces.size());
    for (std::size_t i = 0; i < traces.size(); ++i) {
      trace_index_.emplace(traces[i].name, i);  // first occurrence wins
    }
  }
  const auto it = trace_index_.find(name);
  return it == trace_index_.end() ? nullptr : &traces[it->second];
}

const std::vector<double>& TransientResult::trace(const std::string& name) const {
  const Trace* t = find_trace(name);
  if (t == nullptr) throw std::out_of_range("TransientResult::trace: no trace named " + name);
  return t->values;
}

bool TransientResult::has_trace(const std::string& name) const {
  return find_trace(name) != nullptr;
}

// ---------------------------------------------------------------------------
// StampPlan

std::size_t StampPlan::mat_slot(NodeId row, NodeId col) const {
  if (row == Circuit::ground() || col == Circuit::ground()) return scratch_;
  if (node_pin_[row] != kNoPin || node_pin_[col] != kNoPin) return scratch_;
  return node_slot_[row] * stride_ + node_slot_[col];
}

std::size_t StampPlan::rhs_slot(NodeId node) const {
  if (node == Circuit::ground() || node_pin_[node] != kNoPin) return n_;
  return node_slot_[node];
}

void StampPlan::route_static(std::vector<LinearStamp>& out, NodeId row, NodeId col,
                             double value) {
  if (row == Circuit::ground() || node_pin_[row] != kNoPin) return;  // row eliminated
  route_static_row(out, node_slot_[row], col, value);
}

void StampPlan::route_static_row(std::vector<LinearStamp>& out, std::size_t row_unknown,
                                 NodeId col, double value) {
  if (col == Circuit::ground()) return;  // V = 0: no contribution
  if (node_pin_[col] != kNoPin) {
    // Known voltage: move `value * V_col` to the right-hand side.
    pinned_rhs_.push_back({row_unknown, -value, node_pin_[col]});
    return;
  }
  out.push_back({row_unknown * stride_ + node_slot_[col], value});
}

void StampPlan::append_conductance(NodeId a, NodeId b, double cond) {
  // Same entry order as the reference two-terminal conductance stamp:
  // (a,a), (a,b), (b,b), (b,a) — order matters for reproducible accumulation.
  route_static(pre_cap_, a, a, cond);
  route_static(pre_cap_, a, b, -cond);
  route_static(pre_cap_, b, b, cond);
  route_static(pre_cap_, b, a, -cond);
}

StampPlan::StampPlan(const Circuit& circuit, const SimulatorOptions& options) {
  mos_model_ = options.mos_model;
  n_nodes_ = circuit.node_count();
  const std::vector<VoltageSource>& vsrcs = circuit.vsources();
  const std::size_t n_vsrc = vsrcs.size();
  const std::size_t n_vcvs = circuit.vcvs().size();

  // --- node classification: ground / pinned-by-source / unknown ---
  node_slot_.assign(n_nodes_, 0);
  node_pin_.assign(n_nodes_, kNoPin);
  vsrc_branch_.assign(n_vsrc, kNoSlot);
  std::vector<bool> src_pinned(n_vsrc, false);
  if (options.pin_grounded_sources) {
    for (std::size_t si = 0; si < n_vsrc; ++si) {
      const VoltageSource& v = vsrcs[si];
      NodeId p = Circuit::ground();
      double sign = 1.0;
      if (v.pos != Circuit::ground() && v.neg == Circuit::ground()) {
        p = v.pos;
      } else if (v.neg != Circuit::ground() && v.pos == Circuit::ground()) {
        p = v.neg;
        sign = -1.0;
      }
      if (p == Circuit::ground() || node_pin_[p] != kNoPin) continue;
      node_pin_[p] = pinned_.size();
      src_pinned[si] = true;
      pinned_.push_back({si, p, sign, &v.waveform});
    }
  }
  nu_ = 0;
  for (NodeId nd = 1; nd < n_nodes_; ++nd) {
    if (node_pin_[nd] == kNoPin) node_slot_[nd] = nu_++;
  }
  std::size_t nb_vsrc = 0;
  for (std::size_t si = 0; si < n_vsrc; ++si) {
    if (!src_pinned[si]) vsrc_branch_[si] = nu_ + nb_vsrc++;
  }
  n_ = nu_ + nb_vsrc + n_vcvs;
  for (NodeId nd = 1; nd < n_nodes_; ++nd) {
    if (node_pin_[nd] != kNoPin) node_slot_[nd] = n_ + node_pin_[nd];
  }
  node_slot_[Circuit::ground()] = n_ + pinned_.size();  // trailing zero slot

  stride_ = DenseMatrix::row_stride(n_);
  scratch_ = n_ * stride_;
  static_g_.assign(n_ * stride_ + 1, 0.0);
  rhs_base_.assign(n_ + 1, 0.0);
  pinned_vals_.assign(pinned_.size(), 0.0);

  // gmin to ground keeps cutoff regions non-singular.  It is applied first,
  // then resistors: the accumulation order into shared slots is kept fixed
  // so repeated solves are reproducible.
  for (NodeId nd = 1; nd < n_nodes_; ++nd) {
    if (node_pin_[nd] != kNoPin) continue;
    const std::size_t idx = node_slot_[nd];
    pre_cap_.push_back({idx * stride_ + idx, options.gmin});
  }
  for (const Resistor& r : circuit.resistors()) {
    append_conductance(r.a, r.b, 1.0 / r.ohms);
  }

  for (const Capacitor& c : circuit.capacitors()) {
    CapStamp cs;
    cs.aa = mat_slot(c.a, c.a);
    cs.ab = mat_slot(c.a, c.b);
    cs.bb = mat_slot(c.b, c.b);
    cs.ba = mat_slot(c.b, c.a);
    cs.rhs_a = rhs_slot(c.a);
    cs.rhs_b = rhs_slot(c.b);
    cs.xa = x_slot(c.a);
    cs.xb = x_slot(c.b);
    cs.pin_a = (c.a != Circuit::ground()) ? node_pin_[c.a] : kNoPin;
    cs.pin_b = (c.b != Circuit::ground()) ? node_pin_[c.b] : kNoPin;
    cs.farads = c.farads;
    caps_.push_back(cs);
  }

  for (std::size_t si = 0; si < n_vsrc; ++si) {
    if (vsrc_branch_[si] == kNoSlot) continue;  // absorbed
    const VoltageSource& v = vsrcs[si];
    const std::size_t branch = vsrc_branch_[si];
    if (v.pos != Circuit::ground() && node_pin_[v.pos] == kNoPin) {
      post_cap_.push_back({node_slot_[v.pos] * stride_ + branch, 1.0});
    }
    route_static_row(post_cap_, branch, v.pos, 1.0);
    if (v.neg != Circuit::ground() && node_pin_[v.neg] == kNoPin) {
      post_cap_.push_back({node_slot_[v.neg] * stride_ + branch, -1.0});
    }
    route_static_row(post_cap_, branch, v.neg, -1.0);
    vsrcs_.push_back({branch, &v.waveform});
  }

  for (const CurrentSource& i : circuit.isources()) {
    isrcs_.push_back({rhs_slot(i.pos), rhs_slot(i.neg), &i.waveform});
  }

  const std::vector<Vcvs>& vcvs = circuit.vcvs();
  for (std::size_t ei = 0; ei < vcvs.size(); ++ei) {
    const Vcvs& e = vcvs[ei];
    const std::size_t branch = nu_ + nb_vsrc + ei;
    if (e.pos != Circuit::ground() && node_pin_[e.pos] == kNoPin) {
      post_cap_.push_back({node_slot_[e.pos] * stride_ + branch, 1.0});
    }
    route_static_row(post_cap_, branch, e.pos, 1.0);
    if (e.neg != Circuit::ground() && node_pin_[e.neg] == kNoPin) {
      post_cap_.push_back({node_slot_[e.neg] * stride_ + branch, -1.0});
    }
    route_static_row(post_cap_, branch, e.neg, -1.0);
    route_static_row(post_cap_, branch, e.ctrl_pos, -e.gain);
    route_static_row(post_cap_, branch, e.ctrl_neg, e.gain);
  }

  for (const Vccs& gm : circuit.vccs()) {
    route_static(post_cap_, gm.pos, gm.ctrl_pos, gm.transconductance);
    route_static(post_cap_, gm.pos, gm.ctrl_neg, -gm.transconductance);
    route_static(post_cap_, gm.neg, gm.ctrl_pos, -gm.transconductance);
    route_static(post_cap_, gm.neg, gm.ctrl_neg, gm.transconductance);
  }

  for (const Mosfet& m : circuit.mosfets()) {
    MosStamp ms;
    ms.j_dg = mat_slot(m.drain, m.gate);
    ms.j_dd = mat_slot(m.drain, m.drain);
    ms.j_ds = mat_slot(m.drain, m.source);
    ms.j_sg = mat_slot(m.source, m.gate);
    ms.j_sd = mat_slot(m.source, m.drain);
    ms.j_ss = mat_slot(m.source, m.source);
    ms.rhs_d = rhs_slot(m.drain);
    ms.rhs_s = rhs_slot(m.source);
    ms.xg = x_slot(m.gate);
    ms.xd = x_slot(m.drain);
    ms.xs = x_slot(m.source);
    // Masks fold known-voltage terminals out of the companion RHS: for an
    // unknown terminal the J*v term cancels against the matrix column; for
    // ground/pinned terminals the matrix column is gone and the J*v value
    // belongs in i_eq (ground contributes 0 either way).
    ms.mg = node_is_unknown(m.gate) ? 1.0 : 0.0;
    ms.md = node_is_unknown(m.drain) ? 1.0 : 0.0;
    ms.ms = node_is_unknown(m.source) ? 1.0 : 0.0;
    ms.params = &m.params;
    ms.w_over_l = m.w_over_l();
    mosfets_.push_back(ms);
  }

  build_recovery(circuit, options);
}

void StampPlan::build_recovery(const Circuit& circuit, const SimulatorOptions& options) {
  recovery_.resize(pinned_.size());
  const std::size_t zero_slot = node_slot_[Circuit::ground()];
  for (std::size_t pi = 0; pi < pinned_.size(); ++pi) {
    const NodeId p = pinned_[pi].node;
    std::vector<RecoveryTerm>& terms = recovery_[pi];

    // gmin to ground (matches the gmin the full-branch formulation stamps).
    {
      RecoveryTerm t;
      t.kind = RecoveryTerm::Kind::Conductance;
      t.coeff = options.gmin;
      t.xa = x_slot(p);
      t.xb = zero_slot;
      terms.push_back(t);
    }
    for (const Resistor& r : circuit.resistors()) {
      const double g = 1.0 / r.ohms;
      if (r.a == p) {
        RecoveryTerm t;
        t.kind = RecoveryTerm::Kind::Conductance;
        t.coeff = g;
        t.xa = x_slot(r.a);
        t.xb = x_slot(r.b);
        terms.push_back(t);
      }
      if (r.b == p) {
        RecoveryTerm t;
        t.kind = RecoveryTerm::Kind::Conductance;
        t.coeff = g;
        t.xa = x_slot(r.b);
        t.xb = x_slot(r.a);
        terms.push_back(t);
      }
    }
    const std::vector<Capacitor>& caps = circuit.capacitors();
    for (std::size_t ci = 0; ci < caps.size(); ++ci) {
      if (caps[ci].a == p || caps[ci].b == p) {
        RecoveryTerm t;
        t.kind = RecoveryTerm::Kind::CapCurrent;
        t.coeff = (caps[ci].a == p ? 1.0 : 0.0) - (caps[ci].b == p ? 1.0 : 0.0);
        t.index = ci;
        terms.push_back(t);
      }
    }
    for (const Mosfet& m : circuit.mosfets()) {
      if (m.drain != p && m.source != p) continue;  // gates draw no current
      RecoveryTerm t;
      t.kind = RecoveryTerm::Kind::MosChannel;
      t.coeff = (m.drain == p ? 1.0 : 0.0) - (m.source == p ? 1.0 : 0.0);
      t.params = &m.params;
      t.w_over_l = m.w_over_l();
      t.xg = x_slot(m.gate);
      t.xd = x_slot(m.drain);
      t.xs = x_slot(m.source);
      terms.push_back(t);
    }
    for (const CurrentSource& i : circuit.isources()) {
      if (i.pos != p && i.neg != p) continue;
      RecoveryTerm t;
      t.kind = RecoveryTerm::Kind::SourceCurrent;
      t.coeff = (i.pos == p ? 1.0 : 0.0) - (i.neg == p ? 1.0 : 0.0);
      t.waveform = &i.waveform;
      terms.push_back(t);
    }
    const std::vector<VoltageSource>& vsrcs = circuit.vsources();
    for (std::size_t si = 0; si < vsrcs.size(); ++si) {
      if (vsrc_branch_[si] == kNoSlot) continue;  // absorbed (including self)
      if (vsrcs[si].pos != p && vsrcs[si].neg != p) continue;
      RecoveryTerm t;
      t.kind = RecoveryTerm::Kind::BranchCurrent;
      t.coeff = (vsrcs[si].pos == p ? 1.0 : 0.0) - (vsrcs[si].neg == p ? 1.0 : 0.0);
      t.index = vsrc_branch_[si];
      terms.push_back(t);
    }
    const std::vector<Vcvs>& vcvs = circuit.vcvs();
    for (std::size_t ei = 0; ei < vcvs.size(); ++ei) {
      if (vcvs[ei].pos != p && vcvs[ei].neg != p) continue;
      RecoveryTerm t;
      t.kind = RecoveryTerm::Kind::BranchCurrent;
      t.coeff = (vcvs[ei].pos == p ? 1.0 : 0.0) - (vcvs[ei].neg == p ? 1.0 : 0.0);
      t.index = n_ - vcvs.size() + ei;
      terms.push_back(t);
    }
    for (const Vccs& gm : circuit.vccs()) {
      if (gm.pos != p && gm.neg != p) continue;
      RecoveryTerm t;
      t.kind = RecoveryTerm::Kind::Conductance;
      t.coeff = ((gm.pos == p ? 1.0 : 0.0) - (gm.neg == p ? 1.0 : 0.0)) * gm.transconductance;
      t.xa = x_slot(gm.ctrl_pos);
      t.xb = x_slot(gm.ctrl_neg);
      terms.push_back(t);
    }
  }
}

void StampPlan::begin_solve(const AssemblyInputs& in) {
  const bool transient = in.mode == AnalysisMode::Transient;
  if (transient && in.x_prev.size() != padded_size()) {
    throw std::logic_error("StampPlan::begin_solve: transient requires a padded x_prev");
  }

  // Known node voltages for this solve.
  for (std::size_t pi = 0; pi < pinned_.size(); ++pi) {
    pinned_vals_[pi] =
        pinned_[pi].sign * pinned_[pi].waveform->value(in.time) * in.source_scale;
  }

  // Static matrix: rebuilt only when the (mode, method, dt) key changes —
  // a handful of times per transient (BE startup -> trapezoidal -> final
  // partial step), once per operating point.
  if (!key_.valid || key_.mode != in.mode || key_.trapezoidal != in.trapezoidal ||
      key_.dt != in.dt || key_.extra_gmin != in.extra_gmin) {
    std::fill(static_g_.begin(), static_g_.end(), 0.0);
    for (const LinearStamp& s : pre_cap_) static_g_[s.slot] += s.value;
    if (in.extra_gmin != 0.0) {
      // gmin-stepping rung: extra conductance to ground on every unknown
      // node.  Guarded so the extra_gmin == 0 path accumulates identically
      // to previous releases.
      for (std::size_t i = 0; i < nu_; ++i) static_g_[i * stride_ + i] += in.extra_gmin;
    }
    if (transient) {
      for (const CapStamp& c : caps_) {
        const double geq = (in.trapezoidal ? 2.0 : 1.0) * c.farads / in.dt;
        static_g_[c.aa] += geq;
        static_g_[c.ab] -= geq;
        static_g_[c.bb] += geq;
        static_g_[c.ba] -= geq;
      }
    }
    // In OP mode capacitors are open circuits: no stamp.
    for (const LinearStamp& s : post_cap_) static_g_[s.slot] += s.value;
    static_g_[scratch_] = 0.0;  // scrub scratch garbage from eliminated stamps
    key_ = {in.mode, in.trapezoidal, in.dt, in.extra_gmin, true};
  }

  // RHS base: everything that does not depend on the Newton iterate.  Cheap
  // enough to rebuild per solve (it depends on time, source scale, and the
  // previous timestep).
  std::fill(rhs_base_.begin(), rhs_base_.end(), 0.0);
  double* rb = rhs_base_.data();
  if (transient) {
    const std::span<const double> xp = in.x_prev;
    for (std::size_t ci = 0; ci < caps_.size(); ++ci) {
      const CapStamp& c = caps_[ci];
      const double geq = (in.trapezoidal ? 2.0 : 1.0) * c.farads / in.dt;
      const double v_prev = xp[c.xa] - xp[c.xb];
      if (in.trapezoidal) {
        // i_{n+1} = (2C/dt)(v_{n+1} - v_n) - i_n
        const double i_prev = ci < in.cap_current_prev.size() ? in.cap_current_prev[ci] : 0.0;
        rb[c.rhs_a] += geq * v_prev + i_prev;
        rb[c.rhs_b] -= geq * v_prev + i_prev;
      } else {
        // Backward Euler: i_{n+1} = (C/dt)(v_{n+1} - v_n)
        rb[c.rhs_a] += geq * v_prev;
        rb[c.rhs_b] -= geq * v_prev;
      }
      // Known-voltage side of the companion conductance.
      if (c.pin_b != kNoPin) rb[c.rhs_a] += geq * pinned_vals_[c.pin_b];
      if (c.pin_a != kNoPin) rb[c.rhs_b] += geq * pinned_vals_[c.pin_a];
    }
  }
  for (const VsrcStamp& v : vsrcs_) {
    rb[v.branch] += v.waveform->value(in.time) * in.source_scale;
  }
  for (const IsrcStamp& i : isrcs_) {
    const double value = i.waveform->value(in.time) * in.source_scale;
    rb[i.rhs_pos] -= value;
    rb[i.rhs_neg] += value;
  }
  for (const PinnedRhsStamp& s : pinned_rhs_) {
    rb[s.rhs_row] += s.coeff * pinned_vals_[s.pin];
  }
  rb[n_] = 0.0;  // scrub the RHS scratch slot
}

void StampPlan::load_pinned(std::span<double> x) const {
  for (std::size_t pi = 0; pi < pinned_.size(); ++pi) x[n_ + pi] = pinned_vals_[pi];
  x[n_ + pinned_.size()] = 0.0;  // ground slot
}

void StampPlan::stamp(std::span<const double> x, DenseMatrix& g, std::span<double> rhs) const {
  std::copy(static_g_.begin(), static_g_.end(), g.data());
  std::copy(rhs_base_.begin(), rhs_base_.end(), rhs.begin());
  double* gd = g.data();
  double* rd = rhs.data();

  // MOSFETs: companion model around the current Newton iterate.  Eliminated
  // rows/columns land in the scratch slots, so the loop has no branches
  // beyond the device-region selection inside the linearization itself.
  for (const MosStamp& ms : mosfets_) {
    const double vg = x[ms.xg];
    const double vd = x[ms.xd];
    const double vs = x[ms.xs];
    const MosLinearization lin = mos_linearize(mos_model_, *ms.params, ms.w_over_l, vg, vd, vs);
    // i(vg, vd, vs) ~ i0 + d_vg*(Vg - vg) + d_vd*(Vd - vd) + d_vs*(Vs - vs);
    // only unknown-terminal slopes stay on the left-hand side.
    const double i_eq = lin.i_ds - ms.mg * (lin.d_vg * vg) - ms.md * (lin.d_vd * vd) -
                        ms.ms * (lin.d_vs * vs);
    gd[ms.j_dg] += lin.d_vg;  // current i_ds leaves the drain node
    gd[ms.j_dd] += lin.d_vd;
    gd[ms.j_ds] += lin.d_vs;
    rd[ms.rhs_d] -= i_eq;
    gd[ms.j_sg] -= lin.d_vg;  // and enters the source node
    gd[ms.j_sd] -= lin.d_vd;
    gd[ms.j_ss] -= lin.d_vs;
    rd[ms.rhs_s] += i_eq;
  }
}

void StampPlan::residual(std::span<const double> x, std::span<double> r) const {
  // Static part: G_static x - rhs_base row by row.  Columns >= n_ of each
  // padded row are never written by any stamp, so the matvec can stop at n_.
  const double* g = static_g_.data();
  const double* xp = x.data();
  double* rd = r.data();
  for (std::size_t row = 0; row < n_; ++row) {
    const double* __restrict grow = g + row * stride_;
    double sum = -rhs_base_[row];
    for (std::size_t c = 0; c < n_; ++c) sum += grow[c] * xp[c];
    rd[row] = sum;
  }
  rd[n_] = 0.0;  // scratch slot absorbs eliminated-row device currents
  // Nonlinear part: each channel current leaves the drain node and enters
  // the source node (gates draw no current).
  for (const MosStamp& ms : mosfets_) {
    const double i = mos_current(mos_model_, *ms.params, ms.w_over_l, x[ms.xg], x[ms.xd], x[ms.xs]);
    rd[ms.rhs_d] += i;
    rd[ms.rhs_s] -= i;
  }
}

void StampPlan::vsource_currents(std::span<const double> x, std::span<const double> cap_current,
                                 double time, double source_scale, std::span<double> out) const {
  for (std::size_t si = 0; si < vsrc_branch_.size(); ++si) {
    if (vsrc_branch_[si] != kNoSlot) out[si] = x[vsrc_branch_[si]];
  }
  for (std::size_t pi = 0; pi < pinned_.size(); ++pi) {
    double sum = 0.0;
    for (const RecoveryTerm& t : recovery_[pi]) {
      switch (t.kind) {
        case RecoveryTerm::Kind::Conductance:
          sum += t.coeff * (x[t.xa] - x[t.xb]);
          break;
        case RecoveryTerm::Kind::CapCurrent:
          if (!cap_current.empty()) sum += t.coeff * cap_current[t.index];
          break;
        case RecoveryTerm::Kind::MosChannel:
          sum += t.coeff * mos_current(mos_model_, *t.params, t.w_over_l, x[t.xg], x[t.xd],
                                       x[t.xs]);
          break;
        case RecoveryTerm::Kind::SourceCurrent:
          sum += t.coeff * t.waveform->value(time) * source_scale;
          break;
        case RecoveryTerm::Kind::BranchCurrent:
          sum += t.coeff * x[t.index];
          break;
      }
    }
    // KCL at the pinned node: the currents out of the node plus the source
    // branch current (with its incidence sign) sum to zero.
    out[pinned_[pi].vsource_index] = -pinned_[pi].sign * sum;
  }
}

// ---------------------------------------------------------------------------
// SimulatorWorkspace

void SimulatorWorkspace::prepare(std::size_t n) {
  rhs.resize(n + 1);  // contents are fully overwritten by StampPlan::stamp
  x_new.resize(n);
}

SimulatorWorkspace& thread_local_workspace() {
  thread_local SimulatorWorkspace workspace;
  return workspace;
}

// ---------------------------------------------------------------------------
// Simulator

Simulator::Simulator(const Circuit& circuit, SimulatorOptions options,
                     SimulatorWorkspace* workspace)
    : circuit_(circuit),
      options_(options),
      workspace_(workspace != nullptr ? workspace : &thread_local_workspace()),
      plan_(circuit, options),
      n_nodes_(circuit.node_count()),
      n_vsrc_(circuit.vsources().size()),
      n_vcvs_(circuit.vcvs().size()) {}

double Simulator::voltage_of(const std::vector<double>& x, NodeId node) const {
  return x[plan_.x_slot(node)];
}

namespace {

/// One damped Newton solve over an already-compiled plan: begin_solve,
/// load_pinned, then iterate stamp / fused factor-solve / clamped update
/// until the maximum node-voltage change drops below vtol.  `x` is the
/// initial guess on entry and the converged iterate on exit (padded
/// layout); `iterations` is incremented by the iterations spent.
[[nodiscard]] bool newton_solve_plan(StampPlan& plan, const SimulatorOptions& options,
                                     SimulatorWorkspace& ws, const AssemblyInputs& in,
                                     std::vector<double>& x, int& iterations) {
  const std::size_t n = plan.unknown_count();
  const std::size_t nu = plan.unknown_node_count();
  ws.prepare(n);
  plan.begin_solve(in);
  plan.load_pinned(x);
  // Deterministic fault injection (tests/benches only; t_fault_plan is never
  // installed in production, so this is one null check on the default path).
  const FaultPlan::Site* fault = nullptr;
  if (const FaultPlan* fp = thread_fault_plan(); fp != nullptr) {
    fault = fp->match(fp->cursor++);
  }
  if (fault != nullptr && fault->kind == FaultPlan::Kind::NonConverge) {
    iterations += options.max_newton_iterations;
    return false;
  }
  bool poison_rhs = fault != nullptr && fault->kind == FaultPlan::Kind::NanStamp;
  bool wreck_matrix = fault != nullptr && fault->kind == FaultPlan::Kind::SingularMatrix;
  DenseMatrix& g = ws.solver.matrix(n);
  for (int it = 0; it < options.max_newton_iterations; ++it) {
    plan.stamp(x, g, ws.rhs);
    if (poison_rhs) {
      ws.rhs[0] = std::numeric_limits<double>::quiet_NaN();
      poison_rhs = false;
    }
    if (wreck_matrix) {
      std::fill_n(g.data(), n, 0.0);  // zero row 0: factorization must fail
      wreck_matrix = false;
    }
    if (!ws.solver.factor_solve_in_place(std::span<double>(ws.rhs.data(), n), ws.x_new)) {
      iterations += it + 1;
      return false;
    }
    const std::vector<double>& x_new = ws.x_new;
    // Damped update: clamp the voltage change per iteration (node voltages
    // only; branch currents move freely, as before).
    double max_delta = 0.0;
    for (std::size_t i = 0; i < nu; ++i) {
      const double delta =
          std::clamp(x_new[i] - x[i], -options.max_step_voltage, options.max_step_voltage);
      max_delta = std::max(max_delta, std::abs(delta));
      x[i] += delta;
    }
    for (std::size_t i = nu; i < n; ++i) x[i] = x_new[i];
    bool finite = std::isfinite(max_delta);
    for (std::size_t i = 0; finite && i < n; ++i) finite = std::isfinite(x[i]);
    if (!finite) {
      // A NaN/Inf iterate can never converge (NaN comparisons silently fall
      // out of the max/clamp reductions); bail now instead of burning the
      // iteration budget on a poisoned solve.
      iterations += it + 1;
      return false;
    }
    if (max_delta < options.vtol) {
      iterations += it + 1;
      if (fault != nullptr && fault->kind == FaultPlan::Kind::SlowConverge) {
        iterations += fault->extra_iterations;
      }
      return true;
    }
  }
  iterations += options.max_newton_iterations;
  return false;
}

/// DC operating point over an already-compiled plan: a cold Newton solve,
/// the source-stepping fallback, and (when options.recovery.enabled) the
/// gmin-stepping ladder.  `failure`, when non-null, receives the structured
/// report on non-convergence.  `time` freezes source waveforms at a
/// transient instant for the restart-from-DC recovery rung (0 = the
/// conventional t=0 operating point).
[[nodiscard]] OpResult operating_point_plan(const Circuit& circuit, StampPlan& plan,
                                            const SimulatorOptions& options,
                                            SimulatorWorkspace& ws,
                                            FailureReport* failure = nullptr, double time = 0.0) {
  const std::size_t n_nodes = circuit.node_count();
  const std::size_t n_vsrc = circuit.vsources().size();
  OpResult result;
  std::vector<double> x(plan.padded_size(), 0.0);

  AssemblyInputs in;
  in.mode = AnalysisMode::Op;
  in.time = time;

  int iterations = 0;
  int recovery_attempts = 0;
  bool deadline_hit = false;
  bool ok = newton_solve_plan(plan, options, ws, in, x, iterations);
  if (!ok && deadline_exceeded(options, static_cast<std::uint64_t>(iterations))) {
    deadline_hit = true;
  }
  if (!ok && !deadline_hit) {
    // Source stepping: ramp all independent sources from 0 to full value.
    std::fill(x.begin(), x.end(), 0.0);
    ok = true;
    for (int step = 1; step <= options.source_steps; ++step) {
      in.source_scale = static_cast<double>(step) / options.source_steps;
      if (!newton_solve_plan(plan, options, ws, in, x, iterations)) {
        ok = false;
        break;
      }
      if (deadline_exceeded(options, static_cast<std::uint64_t>(iterations))) {
        ok = false;
        deadline_hit = true;
        break;
      }
    }
    in.source_scale = 1.0;
  }
  if (!ok && deadline_exceeded(options, static_cast<std::uint64_t>(iterations))) {
    deadline_hit = true;
  }
  if (!ok && !deadline_hit && options.recovery.enabled) {
    // gmin-stepping ladder with anneal-back: solve with a large extra
    // conductance to ground on every unknown node (heavily damped,
    // nearly-linear system), then anneal it geometrically toward zero.  A
    // failed rung retreats one level, restarts the iterate cold, and
    // descends more gently from there.  The point only counts once a solve
    // at extra_gmin == 0 converges.
    const RecoveryPolicy& rp = options.recovery;
    std::fill(x.begin(), x.end(), 0.0);
    in.source_scale = 1.0;
    double anneal = rp.gmin_anneal;
    double extra = rp.gmin_start;
    for (int rung = 0; rung < rp.max_gmin_rungs && !ok; ++rung) {
      ++recovery_attempts;
      in.extra_gmin = extra;
      if (newton_solve_plan(plan, options, ws, in, x, iterations)) {
        if (extra == 0.0) {
          ok = true;
          note_recovered_dc();
          break;
        }
        const double next = extra * anneal;
        extra = next <= options.gmin ? 0.0 : next;
      } else {
        std::fill(x.begin(), x.end(), 0.0);
        extra = std::min(rp.gmin_start, (extra == 0.0 ? options.gmin : extra) / anneal);
        anneal = std::sqrt(anneal);
      }
      if (deadline_exceeded(options, static_cast<std::uint64_t>(iterations))) {
        deadline_hit = true;
        break;
      }
    }
    in.extra_gmin = 0.0;
  }

  result.converged = ok;
  result.iterations = iterations;
  if (ok) {
    result.node_voltages.assign(n_nodes, 0.0);
    for (NodeId nd = 1; nd < n_nodes; ++nd) result.node_voltages[nd] = x[plan.x_slot(nd)];
    result.vsource_currents.assign(n_vsrc, 0.0);
    plan.vsource_currents(x, {}, time, 1.0, result.vsource_currents);
  } else if (failure != nullptr) {
    failure->stage = deadline_hit ? FailureStage::Deadline : FailureStage::DcOperatingPoint;
    failure->time = time;
    failure->attempts = recovery_attempts;
    note_worst_residual(circuit, plan, x, *failure);
    if (deadline_hit) note_deadline_abort();
  }
  return result;
}

}  // namespace

bool Simulator::newton_solve(const AssemblyInputs& in, std::vector<double>& x, int& iterations) {
  return newton_solve_plan(plan_, options_, *workspace_, in, x, iterations);
}

OpResult Simulator::operating_point() {
  return operating_point_plan(circuit_, plan_, options_, *workspace_);
}

TransientResult Simulator::transient(const TransientSpec& spec) {
  TransientResult result;
  if (spec.dt <= 0.0 || spec.t_stop <= 0.0) {
    result.failure.stage = FailureStage::Setup;
    result.failure.message = "transient: dt and t_stop must be positive";
    result.error = result.failure.to_string();
    return result;
  }

  // --- initial state (padded layout: pinned tail reloaded every solve) ---
  std::vector<double> x(plan_.padded_size(), 0.0);
  if (spec.use_ic) {
    for (const auto& [name, value] : spec.initial_conditions) {
      const NodeId node = circuit_.find_node(name);
      if (node != Circuit::ground() && plan_.node_is_unknown(node)) {
        x[plan_.x_slot(node)] = value;
      }
    }
    // Also honor capacitor initial voltages for caps to ground.
    for (const Capacitor& c : circuit_.capacitors()) {
      if (c.initial_voltage && c.b == Circuit::ground() && c.a != Circuit::ground() &&
          plan_.node_is_unknown(c.a)) {
        x[plan_.x_slot(c.a)] = *c.initial_voltage;
      }
    }
  } else {
    OpResult op = operating_point_plan(circuit_, plan_, options_, *workspace_, &result.failure);
    if (!op.converged) {
      result.error = result.failure.to_string();
      return result;
    }
    for (NodeId nd = 1; nd < n_nodes_; ++nd) x[plan_.x_slot(nd)] = op.node_voltages[nd];
    for (std::size_t si = 0; si < n_vsrc_; ++si) {
      const std::size_t slot = plan_.vsource_branch_slot(si);
      if (slot != StampPlan::kNoSlot) x[slot] = op.vsource_currents[si];
    }
    result.dc_iterations = op.iterations;
    result.dc_op = std::move(op);
    if (deadline_exceeded(options_, static_cast<std::uint64_t>(result.dc_iterations))) {
      result.failure.stage = FailureStage::Deadline;
      result.failure.time = 0.0;
      note_deadline_abort();
      result.error = result.failure.to_string();
      return result;
    }
  }

  // --- set up recording ---
  std::vector<NodeId> record_nodes;
  if (spec.record.empty()) {
    for (NodeId nd = 1; nd < n_nodes_; ++nd) record_nodes.push_back(nd);
  } else {
    for (const std::string& name : spec.record) record_nodes.push_back(circuit_.find_node(name));
  }
  result.traces.reserve(record_nodes.size() + n_vsrc_);
  for (const NodeId nd : record_nodes) result.traces.push_back(Trace{circuit_.node_name(nd), {}});
  for (const VoltageSource& v : circuit_.vsources()) {
    result.traces.push_back(Trace{"I(" + v.name + ")", {}});
  }

  const std::size_t n_caps = circuit_.capacitors().size();
  std::vector<double> cap_current(n_caps, 0.0);
  std::vector<double> vsrc_i(n_vsrc_, 0.0);

  const auto record_point = [&](double time, const std::vector<double>& solution,
                                bool recover_currents) {
    result.times.push_back(time);
    std::size_t ti = 0;
    for (const NodeId nd : record_nodes) result.traces[ti++].values.push_back(voltage_of(solution, nd));
    if (n_vsrc_ > 0) {
      if (recover_currents) {
        plan_.vsource_currents(solution, cap_current, time, 1.0, vsrc_i);
      } else {
        std::fill(vsrc_i.begin(), vsrc_i.end(), 0.0);
      }
      for (std::size_t si = 0; si < n_vsrc_; ++si) result.traces[ti++].values.push_back(vsrc_i[si]);
    }
  };

  // With UIC the t = 0 state is the caller's initial guess, not a solved
  // point: branch currents are zero by definition (the classic full-branch
  // formulation records exactly that), and the pinned tail of `x` is not
  // loaded yet, so KCL recovery must not run against it.
  record_point(0.0, x, /*recover_currents=*/!spec.use_ic);

  // --- time stepping ---
  std::vector<double> x_prev = x;

  // Update per-capacitor branch currents for the trapezoidal companion.
  // `cap` is the target state vector: the main loops pass cap_current, the
  // recovery substeps a scratch copy committed only on success.
  const std::vector<Capacitor>& caps = circuit_.capacitors();
  const auto update_caps_into = [&](std::vector<double>& cap, const std::vector<double>& x_now,
                                    const std::vector<double>& x_was, double dt,
                                    bool trapezoidal) {
    for (std::size_t ci = 0; ci < n_caps; ++ci) {
      const Capacitor& c = caps[ci];
      const double v_now = voltage_of(x_now, c.a) - voltage_of(x_now, c.b);
      const double v_was = voltage_of(x_was, c.a) - voltage_of(x_was, c.b);
      if (trapezoidal) {
        cap[ci] = 2.0 * c.farads / dt * (v_now - v_was) - cap[ci];
      } else {
        cap[ci] = c.farads / dt * (v_now - v_was);
      }
    }
  };
  const auto update_cap_currents = [&](const std::vector<double>& x_now,
                                       const std::vector<double>& x_was, double dt,
                                       bool trapezoidal) {
    update_caps_into(cap_current, x_now, x_was, dt, trapezoidal);
  };

  // Newton iterations spent so far this run (the cooperative deadline is on
  // DC + transient combined).
  const auto spent = [&]() {
    return static_cast<std::uint64_t>(result.dc_iterations) + result.newton_iterations;
  };

  // Recovery rung 2 (fixed grid): cut the failing [t_prev, t] step into 2^k
  // backward-Euler substeps from the last accepted point, deeper on repeated
  // failure; recording stays at the original grid point so the trace shape
  // is unchanged.  Rung 3: bounded restart from a pseudo-DC point with the
  // sources frozen at t (capacitors open, so their currents restart at 0).
  // On success `x` holds the solution at t and cap_current the matching
  // companion state.
  const auto rescue_transient_step = [&](double t_prev, double t, int& attempts,
                                         bool& deadline_hit) -> bool {
    const RecoveryPolicy& rp = options_.recovery;
    std::vector<double> x_sub(x.size());
    std::vector<double> x_sub_prev(x.size());
    std::vector<double> cap_sub(n_caps);
    for (int cut = 1; cut <= rp.max_step_cuts; ++cut) {
      ++attempts;
      const int k = 1 << cut;
      x_sub = x_prev;
      x_sub_prev = x_prev;
      cap_sub = cap_current;
      bool sub_ok = true;
      double t_a = t_prev;
      for (int j = 1; j <= k; ++j) {
        const double t_b = j == k ? t : t_prev + (t - t_prev) * j / k;
        AssemblyInputs sub;
        sub.mode = AnalysisMode::Transient;
        sub.time = t_b;
        sub.dt = t_b - t_a;
        sub.trapezoidal = false;
        sub.x_prev = x_sub_prev;
        sub.cap_current_prev = cap_sub;
        int sub_iterations = 0;
        const bool solved = newton_solve(sub, x_sub, sub_iterations);
        result.newton_iterations += static_cast<std::uint64_t>(sub_iterations);
        if (deadline_exceeded(options_, spent())) {
          deadline_hit = true;
          return false;
        }
        if (!solved) {
          sub_ok = false;
          break;
        }
        update_caps_into(cap_sub, x_sub, x_sub_prev, sub.dt, false);
        x_sub_prev = x_sub;
        t_a = t_b;
      }
      if (sub_ok) {
        x = x_sub;
        cap_current = cap_sub;
        return true;
      }
    }
    for (int restart = 0; restart < rp.dc_restart_attempts; ++restart) {
      ++attempts;
      OpResult op = operating_point_plan(circuit_, plan_, options_, *workspace_, nullptr, t);
      result.newton_iterations += static_cast<std::uint64_t>(op.iterations);
      if (deadline_exceeded(options_, spent())) {
        deadline_hit = true;
        return false;
      }
      if (!op.converged) continue;
      std::fill(x.begin(), x.end(), 0.0);
      for (NodeId nd = 1; nd < n_nodes_; ++nd) x[plan_.x_slot(nd)] = op.node_voltages[nd];
      for (std::size_t si = 0; si < n_vsrc_; ++si) {
        const std::size_t slot = plan_.vsource_branch_slot(si);
        if (slot != StampPlan::kNoSlot) x[slot] = op.vsource_currents[si];
      }
      std::fill(cap_current.begin(), cap_current.end(), 0.0);
      return true;
    }
    return false;
  };

  if (!options_.adaptive_timestep) {
    const auto n_steps = static_cast<std::size_t>(std::ceil(spec.t_stop / spec.dt));

    for (std::size_t step = 1; step <= n_steps; ++step) {
      // Uniform grid, with the final (possibly partial) step landing exactly
      // on t_stop.  dt is measured against the previously recorded time, so
      // it is positive by construction of n_steps; the guard only fires if
      // rounding made the second-to-last grid point collide with t_stop.
      const double t_prev = result.times.back();
      double t = static_cast<double>(step) * spec.dt;
      if (step == n_steps || t > spec.t_stop) t = spec.t_stop;
      const double dt = t - t_prev;
      if (dt <= 0.0) break;

      AssemblyInputs in;
      in.mode = AnalysisMode::Transient;
      in.time = t;
      in.dt = dt;
      // Backward-Euler startup damps the artificial transient from imperfect
      // initial conditions; trapezoidal afterwards for accuracy.
      in.trapezoidal = step > 2;
      in.x_prev = x_prev;
      in.cap_current_prev = cap_current;

      int step_iterations = 0;
      bool solved = newton_solve(in, x, step_iterations);
      result.newton_iterations += static_cast<std::uint64_t>(step_iterations);
      bool deadline_hit = deadline_exceeded(options_, spent());
      bool rescued = false;
      FailureReport report;
      if (!solved) {
        // Capture the worst-residual row of the failed iterate now, while
        // the plan still holds this solve's assembly.
        note_worst_residual(circuit_, plan_, x, report);
        if (!deadline_hit && options_.recovery.enabled) {
          rescued = rescue_transient_step(t_prev, t, report.attempts, deadline_hit);
          if (rescued) note_recovered_transient();
        }
      }
      if (!solved && !rescued) {
        report.stage = deadline_hit ? FailureStage::Deadline : FailureStage::TransientNewton;
        report.time = t;
        if (deadline_hit) note_deadline_abort();
        result.failure = std::move(report);
        result.error = result.failure.to_string();
        return result;
      }
      if (solved && deadline_hit) {
        result.failure.stage = FailureStage::Deadline;
        result.failure.time = t;
        note_deadline_abort();
        result.error = result.failure.to_string();
        return result;
      }

      // A rescued step's companion state was advanced by its substeps (or
      // reset by the DC restart); only the plain path integrates over dt.
      if (!rescued) update_cap_currents(x, x_prev, dt, in.trapezoidal);

      record_point(t, x, /*recover_currents=*/true);
      ++result.steps_accepted;
      result.dt_trace.push_back(dt);
      x_prev = x;
    }

    result.ok = true;
    return result;
  }

  // --- LTE-adaptive time stepping ---
  //
  // spec.dt is the initial (and post-breakpoint) step.  Each step is solved
  // tentatively, its local truncation error estimated from divided
  // differences over the accepted history, and accepted/rejected against
  // reltol * |v| + abstol; dt then follows the classic error-controller
  // update safety * ratio^(-1/(order+1)) within grow/shrink clamps.  Steps
  // are forced to land exactly on waveform breakpoints, and both the step
  // size and the integration order reset there (the divided-difference
  // history straddling a slope discontinuity would poison the estimate).
  const double dt_min = spec.dt * options_.dt_min_factor;
  const double dt_max = spec.dt * options_.dt_max_factor;

  std::vector<double> breaks;
  for (const VoltageSource& v : circuit_.vsources()) {
    v.waveform.append_breakpoints(spec.t_stop, breaks);
  }
  for (const CurrentSource& i : circuit_.isources()) {
    i.waveform.append_breakpoints(spec.t_stop, breaks);
  }
  breaks.push_back(spec.t_stop);
  std::sort(breaks.begin(), breaks.end());
  // Merge breakpoints closer than dt_min; the run must still end exactly at
  // t_stop even if the final breakpoint got swallowed by the merge.
  {
    std::size_t kept = 0;
    for (const double t : breaks) {
      if (kept != 0 && t - breaks[kept - 1] < dt_min) continue;
      breaks[kept++] = t;
    }
    breaks.resize(kept);
    if (breaks.back() != spec.t_stop) breaks.back() = spec.t_stop;
  }

  // Accepted-solution history for the divided-difference LTE estimate:
  // newest last, node voltages only (branch currents are algebraic in MNA
  // and carry no integration error of their own).
  const std::size_t nu = plan_.unknown_node_count();
  std::array<std::vector<double>, 3> hist_x;
  std::array<double, 3> hist_t{};
  std::size_t hist_n = 0;
  const auto push_history = [&](double t, const std::vector<double>& sol) {
    if (hist_n == 3) {
      std::vector<double> recycled = std::move(hist_x[0]);
      hist_x[0] = std::move(hist_x[1]);
      hist_x[1] = std::move(hist_x[2]);
      hist_x[2] = std::move(recycled);
      hist_t[0] = hist_t[1];
      hist_t[1] = hist_t[2];
      --hist_n;
    }
    hist_x[hist_n].assign(sol.begin(), sol.begin() + static_cast<std::ptrdiff_t>(nu));
    hist_t[hist_n] = t;
    ++hist_n;
  };
  push_history(0.0, x);

  /// max_i lte_i / (reltol * |v_i| + abstol) for the tentative solution, or
  /// 0 when the history is too short to estimate (startup: accept).
  const auto lte_ratio = [&](double t_new, const std::vector<double>& x_new, bool trap) {
    const std::size_t need = trap ? 3 : 2;  // history points (+ the trial)
    if (hist_n < need) return 0.0;
    const std::size_t m = need;  // divided-difference order
    double ts[4];
    const std::vector<double>* hx[3];
    for (std::size_t k = 0; k < need; ++k) {
      ts[k] = hist_t[hist_n - need + k];
      hx[k] = &hist_x[hist_n - need + k];
    }
    ts[m] = t_new;
    const double dt_new = t_new - ts[m - 1];
    double worst = 0.0;
    for (std::size_t i = 0; i < nu; ++i) {
      double f[4];
      for (std::size_t k = 0; k < need; ++k) f[k] = (*hx[k])[i];
      f[m] = x_new[i];
      for (std::size_t order = 1; order <= m; ++order) {
        for (std::size_t k = m; k >= order; --k) {
          f[k] = (f[k] - f[k - 1]) / (ts[k] - ts[k - order]);
        }
      }
      // Trapezoidal LTE ~ dt^3/12 |x'''| with x''' ~ 6 DD3; backward Euler
      // LTE ~ dt^2/2 |x''| with x'' ~ 2 DD2.
      const double lte = trap ? 0.5 * dt_new * dt_new * dt_new * std::abs(f[m])
                              : dt_new * dt_new * std::abs(f[m]);
      const double tol = options_.lte_reltol * std::max(std::abs(x_new[i]), std::abs((*hx[m - 1])[i])) +
                         options_.lte_abstol;
      worst = std::max(worst, lte / tol);
    }
    return worst;
  };

  double t_cur = 0.0;
  double dt = std::clamp(spec.dt, dt_min, dt_max);
  std::size_t bp_i = 0;
  std::size_t since_reset = 0;  // accepted steps since t=0 / last breakpoint
  std::vector<double> x_trial = x_prev;

  while (t_cur < spec.t_stop) {
    while (bp_i < breaks.size() && breaks[bp_i] <= t_cur) ++bp_i;
    if (bp_i >= breaks.size()) break;  // unreachable: t_stop is a breakpoint
    const double bp = breaks[bp_i];

    dt = std::clamp(dt, dt_min, dt_max);
    double t_next = t_cur + dt;
    if (t_next > bp - dt_min) t_next = bp;  // land exactly, leave no sliver
    const double dt_eff = t_next - t_cur;
    // Backward-Euler startup after t=0 and after every breakpoint, matching
    // the fixed-grid path's two-step BE damping of companion transients.
    const bool trap = since_reset >= 2;

    AssemblyInputs in;
    in.mode = AnalysisMode::Transient;
    in.time = t_next;
    in.dt = dt_eff;
    in.trapezoidal = trap;
    in.x_prev = x_prev;
    in.cap_current_prev = cap_current;

    x_trial = x_prev;
    int step_iterations = 0;
    const bool solved = newton_solve(in, x_trial, step_iterations);
    result.newton_iterations += static_cast<std::uint64_t>(step_iterations);
    if (deadline_exceeded(options_, spent())) {
      note_lte_steps(result.steps_accepted, result.steps_rejected);
      result.failure.stage = FailureStage::Deadline;
      result.failure.time = t_next;
      if (!solved) note_worst_residual(circuit_, plan_, x_trial, result.failure);
      note_deadline_abort();
      result.error = result.failure.to_string();
      return result;
    }
    if (!solved) {
      if (dt_eff <= dt_min * (1.0 + 1e-9)) {
        FailureReport report;
        report.time = t_next;
        note_worst_residual(circuit_, plan_, x_trial, report);
        bool deadline_hit = false;
        bool rescued = false;
        if (options_.recovery.enabled) {
          // Last recovery rung at dt_min: bounded restart from a pseudo-DC
          // point with the sources frozen at t_next, then resume with a
          // fresh backward-Euler startup (capacitor currents restart at 0,
          // the divided-difference history is discarded).
          for (int restart = 0; restart < options_.recovery.dc_restart_attempts; ++restart) {
            ++report.attempts;
            OpResult op =
                operating_point_plan(circuit_, plan_, options_, *workspace_, nullptr, t_next);
            result.newton_iterations += static_cast<std::uint64_t>(op.iterations);
            if (deadline_exceeded(options_, spent())) {
              deadline_hit = true;
              break;
            }
            if (!op.converged) continue;
            std::fill(x_trial.begin(), x_trial.end(), 0.0);
            for (NodeId nd = 1; nd < n_nodes_; ++nd) {
              x_trial[plan_.x_slot(nd)] = op.node_voltages[nd];
            }
            for (std::size_t si = 0; si < n_vsrc_; ++si) {
              const std::size_t slot = plan_.vsource_branch_slot(si);
              if (slot != StampPlan::kNoSlot) x_trial[slot] = op.vsource_currents[si];
            }
            std::fill(cap_current.begin(), cap_current.end(), 0.0);
            rescued = true;
            note_recovered_transient();
            break;
          }
        }
        if (!rescued) {
          note_lte_steps(result.steps_accepted, result.steps_rejected);
          report.stage = deadline_hit ? FailureStage::Deadline : FailureStage::Timestep;
          if (deadline_hit) note_deadline_abort();
          result.failure = std::move(report);
          result.error = result.failure.to_string();
          return result;
        }
        // Accept the restart state as the solution at t_next and reset the
        // controller exactly as a breakpoint does.
        record_point(t_next, x_trial, /*recover_currents=*/true);
        ++result.steps_accepted;
        result.dt_trace.push_back(dt_eff);
        std::swap(x_prev, x_trial);
        t_cur = t_next;
        since_reset = 0;
        hist_n = 0;
        push_history(t_next, x_prev);
        dt = std::clamp(spec.dt, dt_min, dt_max);
        continue;
      }
      ++result.steps_rejected;
      dt = std::max(dt_min, dt_eff * options_.dt_shrink_limit);
      continue;
    }

    const double ratio = lte_ratio(t_next, x_trial, trap);
    if (ratio > 1.0 && dt_eff > dt_min * (1.0 + 1e-9)) {
      ++result.steps_rejected;
      const double p = trap ? 3.0 : 2.0;
      const double shrink =
          std::clamp(options_.lte_safety * std::pow(ratio, -1.0 / p), options_.dt_shrink_limit, 0.9);
      dt = std::max(dt_min, dt_eff * shrink);
      continue;
    }

    update_cap_currents(x_trial, x_prev, dt_eff, trap);
    record_point(t_next, x_trial, /*recover_currents=*/true);
    ++result.steps_accepted;
    result.dt_trace.push_back(dt_eff);
    std::swap(x_prev, x_trial);
    t_cur = t_next;

    if (t_next == bp) {
      since_reset = 0;
      hist_n = 0;  // order reset: discard history across the discontinuity
      push_history(t_next, x_prev);
      dt = std::clamp(spec.dt, dt_min, dt_max);
    } else {
      ++since_reset;
      push_history(t_next, x_prev);
      const double p = trap ? 3.0 : 2.0;
      const double grow = ratio > 0.0
                              ? std::clamp(options_.lte_safety * std::pow(ratio, -1.0 / p),
                                           options_.dt_shrink_limit, options_.dt_grow_limit)
                              : options_.dt_grow_limit;
      dt = dt_eff * grow;
    }
  }

  note_lte_steps(result.steps_accepted, result.steps_rejected);
  result.ok = true;
  return result;
}

}  // namespace glova::spice
