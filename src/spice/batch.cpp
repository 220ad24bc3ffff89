#include "spice/batch.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "spice/counters.hpp"
#include "spice/mos_model.hpp"

namespace glova::spice {

namespace {

[[noreturn]] void congruence_fail(std::size_t lane, const char* what) {
  throw std::invalid_argument("BatchSimulator: lane " + std::to_string(lane) +
                              " is not congruent with lane 0 (" + what + ")");
}

/// Structural congruence: identical node table and element topology; values
/// (resistances, capacitances, W/L, model parameters, waveforms) may differ.
void check_congruent(const Circuit& a, const Circuit& b, std::size_t lane) {
  if (a.node_count() != b.node_count()) congruence_fail(lane, "node count");
  for (NodeId nd = 0; nd < a.node_count(); ++nd) {
    if (a.node_name(nd) != b.node_name(nd)) congruence_fail(lane, "node names");
  }
  if (a.resistors().size() != b.resistors().size()) congruence_fail(lane, "resistor count");
  for (std::size_t i = 0; i < a.resistors().size(); ++i) {
    if (a.resistors()[i].a != b.resistors()[i].a || a.resistors()[i].b != b.resistors()[i].b) {
      congruence_fail(lane, "resistor terminals");
    }
  }
  if (a.capacitors().size() != b.capacitors().size()) congruence_fail(lane, "capacitor count");
  for (std::size_t i = 0; i < a.capacitors().size(); ++i) {
    if (a.capacitors()[i].a != b.capacitors()[i].a || a.capacitors()[i].b != b.capacitors()[i].b) {
      congruence_fail(lane, "capacitor terminals");
    }
  }
  if (a.vsources().size() != b.vsources().size()) congruence_fail(lane, "vsource count");
  for (std::size_t i = 0; i < a.vsources().size(); ++i) {
    if (a.vsources()[i].pos != b.vsources()[i].pos || a.vsources()[i].neg != b.vsources()[i].neg) {
      congruence_fail(lane, "vsource terminals");
    }
  }
  if (a.isources().size() != b.isources().size()) congruence_fail(lane, "isource count");
  for (std::size_t i = 0; i < a.isources().size(); ++i) {
    if (a.isources()[i].pos != b.isources()[i].pos || a.isources()[i].neg != b.isources()[i].neg) {
      congruence_fail(lane, "isource terminals");
    }
  }
  if (a.vcvs().size() != b.vcvs().size()) congruence_fail(lane, "vcvs count");
  for (std::size_t i = 0; i < a.vcvs().size(); ++i) {
    const Vcvs& ea = a.vcvs()[i];
    const Vcvs& eb = b.vcvs()[i];
    if (ea.pos != eb.pos || ea.neg != eb.neg || ea.ctrl_pos != eb.ctrl_pos ||
        ea.ctrl_neg != eb.ctrl_neg) {
      congruence_fail(lane, "vcvs terminals");
    }
  }
  if (a.vccs().size() != b.vccs().size()) congruence_fail(lane, "vccs count");
  for (std::size_t i = 0; i < a.vccs().size(); ++i) {
    const Vccs& ga = a.vccs()[i];
    const Vccs& gb = b.vccs()[i];
    if (ga.pos != gb.pos || ga.neg != gb.neg || ga.ctrl_pos != gb.ctrl_pos ||
        ga.ctrl_neg != gb.ctrl_neg) {
      congruence_fail(lane, "vccs terminals");
    }
  }
  if (a.mosfets().size() != b.mosfets().size()) congruence_fail(lane, "mosfet count");
  for (std::size_t i = 0; i < a.mosfets().size(); ++i) {
    const Mosfet& ma = a.mosfets()[i];
    const Mosfet& mb = b.mosfets()[i];
    if (ma.drain != mb.drain || ma.gate != mb.gate || ma.source != mb.source) {
      congruence_fail(lane, "mosfet terminals");
    }
  }
}

}  // namespace

void BatchWorkspace::prepare(std::size_t lane_count, std::size_t padded, std::size_t unknowns,
                             std::size_t cap_count) {
  lanes = lane_count;
  x_stride = (padded + 7) & ~static_cast<std::size_t>(7);
  rhs_stride = (unknowns + 1 + 7) & ~static_cast<std::size_t>(7);
  cap_stride = cap_count;
  x.assign(lanes * x_stride, 0.0);
  x_prev.assign(lanes * x_stride, 0.0);
  rhs.assign(lanes * rhs_stride, 0.0);
  cap_current.assign(lanes * cap_stride, 0.0);
  if (solvers.size() < lanes) solvers.resize(lanes);
}

BatchWorkspace& thread_local_batch_workspace() {
  thread_local BatchWorkspace workspace;
  return workspace;
}

BatchSimulator::BatchSimulator(std::span<const Circuit> lanes, SimulatorOptions options,
                               BatchWorkspace* workspace)
    : options_(options),
      ws_(workspace != nullptr ? workspace : &thread_local_batch_workspace()) {
  if (lanes.empty()) {
    throw std::invalid_argument("BatchSimulator: at least one lane is required");
  }
  circuits_.reserve(lanes.size());
  for (const Circuit& c : lanes) circuits_.push_back(&c);
  for (std::size_t l = 1; l < lanes.size(); ++l) check_congruent(lanes[0], lanes[l], l);
  plans_.reserve(lanes.size());
  for (const Circuit* c : circuits_) plans_.emplace_back(*c, options_);
  n_ = plans_[0].unknown_count();
  nu_ = plans_[0].unknown_node_count();
  padded_ = plans_[0].padded_size();
  n_nodes_ = circuits_[0]->node_count();
  n_vsrc_ = circuits_[0]->vsources().size();
  n_caps_ = circuits_[0]->capacitors().size();
}

void BatchSimulator::update_caps_lane(std::size_t l, double dt, bool trapezoidal) {
  const std::vector<Capacitor>& caps = circuits_[l]->capacitors();
  const StampPlan& plan = plans_[l];
  double* cc = ws_->cap_current.data() + l * ws_->cap_stride;
  const double* xn = ws_->x.data() + l * ws_->x_stride;
  const double* xw = ws_->x_prev.data() + l * ws_->x_stride;
  for (std::size_t ci = 0; ci < n_caps_; ++ci) {
    const Capacitor& c = caps[ci];
    const double v_now = xn[plan.x_slot(c.a)] - xn[plan.x_slot(c.b)];
    const double v_was = xw[plan.x_slot(c.a)] - xw[plan.x_slot(c.b)];
    if (trapezoidal) {
      cc[ci] = 2.0 * c.farads / dt * (v_now - v_was) - cc[ci];
    } else {
      cc[ci] = c.farads / dt * (v_now - v_was);
    }
  }
}

bool BatchSimulator::rescue_lane_step(std::size_t l, double t_prev, double t,
                                      TransientResult& result, int& attempts,
                                      bool& deadline_hit) {
  // Scalar-path rescue for one lane (see Simulator's rescue_transient_step):
  // rung 2 cuts [t_prev, t] into 2^k backward-Euler substeps solved with the
  // scalar Newton kernel on this lane's plan; rung 3 is a bounded restart
  // from a pseudo-DC point with the sources frozen at t.  Only lane l's
  // slices of the workspace are written, and only on success.
  const RecoveryPolicy& rp = options_.recovery;
  SimulatorWorkspace& sws = thread_local_workspace();
  const StampPlan& plan = plans_[l];
  const std::vector<Capacitor>& caps = circuits_[l]->capacitors();
  const double* xp = ws_->x_prev.data() + l * ws_->x_stride;
  const double* cc = ws_->cap_current.data() + l * ws_->cap_stride;
  std::vector<double> x_sub(padded_);
  std::vector<double> x_sub_prev(padded_);
  std::vector<double> cap_sub(n_caps_);
  for (int cut = 1; cut <= rp.max_step_cuts; ++cut) {
    ++attempts;
    const int k = 1 << cut;
    std::copy(xp, xp + padded_, x_sub.begin());
    x_sub_prev = x_sub;
    std::copy(cc, cc + n_caps_, cap_sub.begin());
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
      const bool solved = newton_solve_plan(plans_[l], options_, sws, sub, x_sub, sub_iterations);
      result.newton_iterations += static_cast<std::uint64_t>(sub_iterations);
      if (lane_deadline(result)) {
        deadline_hit = true;
        return false;
      }
      if (!solved) {
        sub_ok = false;
        break;
      }
      for (std::size_t ci = 0; ci < n_caps_; ++ci) {
        const Capacitor& c = caps[ci];
        const double v_now = x_sub[plan.x_slot(c.a)] - x_sub[plan.x_slot(c.b)];
        const double v_was = x_sub_prev[plan.x_slot(c.a)] - x_sub_prev[plan.x_slot(c.b)];
        cap_sub[ci] = c.farads / sub.dt * (v_now - v_was);
      }
      x_sub_prev = x_sub;
      t_a = t_b;
    }
    if (sub_ok) {
      std::copy(x_sub.begin(), x_sub.end(), ws_->x.data() + l * ws_->x_stride);
      std::copy(cap_sub.begin(), cap_sub.end(), ws_->cap_current.data() + l * ws_->cap_stride);
      return true;
    }
  }
  for (int restart = 0; restart < rp.dc_restart_attempts; ++restart) {
    ++attempts;
    OpResult op =
        operating_point_plan(*circuits_[l], plans_[l], options_, sws, nullptr, nullptr, t);
    result.newton_iterations += static_cast<std::uint64_t>(op.iterations);
    if (lane_deadline(result)) {
      deadline_hit = true;
      return false;
    }
    if (!op.converged) continue;
    double* xl = ws_->x.data() + l * ws_->x_stride;
    std::fill(xl, xl + padded_, 0.0);
    for (NodeId nd = 1; nd < n_nodes_; ++nd) xl[plan.x_slot(nd)] = op.node_voltages[nd];
    for (std::size_t si = 0; si < n_vsrc_; ++si) {
      const std::size_t slot = plan.vsource_branch_slot(si);
      if (slot != StampPlan::kNoSlot) xl[slot] = op.vsource_currents[si];
    }
    std::fill(ws_->cap_current.data() + l * ws_->cap_stride,
              ws_->cap_current.data() + l * ws_->cap_stride + n_caps_, 0.0);
    return true;
  }
  return false;
}

void BatchSimulator::solve_step(double time, double dt, bool trapezoidal) {
  const std::size_t lanes = circuits_.size();
  const std::size_t n = n_;
  const std::size_t nu = nu_;

  ok_.assign(lanes, 0);
  done_.assign(lanes, 0);
  fail_.assign(lanes, 0);
  iter_spent_.assign(lanes, 0);

  // Deterministic fault injection: one solve index per live lane, consumed
  // in lane order so indices line up with N sequential scalar solves.
  fault_site_.assign(lanes, nullptr);
  if (const FaultPlan* fp = thread_fault_plan(); fp != nullptr) {
    for (std::size_t l = 0; l < lanes; ++l) {
      if (alive_[l]) fault_site_[l] = fp->match(fp->cursor++);
    }
  }

  for (std::size_t l = 0; l < lanes; ++l) {
    if (!alive_[l]) continue;
    AssemblyInputs in;
    in.mode = AnalysisMode::Transient;
    in.time = time;
    in.dt = dt;
    in.trapezoidal = trapezoidal;
    in.x_prev = std::span<const double>(ws_->x_prev.data() + l * ws_->x_stride, padded_);
    in.cap_current_prev = std::span<const double>(ws_->cap_current.data() + l * ws_->cap_stride,
                                                  ws_->cap_stride);
    plans_[l].begin_solve(in);
    plans_[l].load_pinned(ws_->lane_x(l));
    if (fault_site_[l] != nullptr && fault_site_[l]->kind == FaultPlan::Kind::NonConverge) {
      // Mirrors newton_solve_plan: the assembly state is valid (residual
      // probes work) but the solve burns its budget and fails.
      fail_[l] = 1;
      iter_spent_[l] = options_.max_newton_iterations;
    }
  }

  const std::size_t n_dev = plans_[0].mos_stamps().size();

  // --- full Newton, lockstep across lanes ----------------------------------
  for (int it = 0; it < options_.max_newton_iterations; ++it) {
    act_.clear();
    for (std::size_t l = 0; l < lanes; ++l) {
      if (alive_[l] && !done_[l] && !fail_[l]) act_.push_back(l);
    }
    if (act_.empty()) break;

    // Assembly: per-lane linear load, then the device-major companion pass.
    act_g_.clear();
    act_rhs_.clear();
    act_x_.clear();
    for (const std::size_t l : act_) {
      DenseMatrix& g = ws_->solvers[l].matrix(n);
      plans_[l].load_static(g, ws_->lane_rhs(l));
      act_g_.push_back(g.data());
      act_rhs_.push_back(ws_->rhs.data() + l * ws_->rhs_stride);
      act_x_.push_back(ws_->x.data() + l * ws_->x_stride);
    }
    for (std::size_t di = 0; di < n_dev; ++di) {
      for (std::size_t k = 0; k < act_.size(); ++k) {
        const StampPlan::MosStamp& ms = plans_[act_[k]].mos_stamps()[di];
        const double* __restrict xl = act_x_[k];
        double* __restrict gd = act_g_[k];
        double* __restrict rd = act_rhs_[k];
        const double vg = xl[ms.xg];
        const double vd = xl[ms.xd];
        const double vs = xl[ms.xs];
        const MosLinearization lin =
            mos_linearize(options_.mos_model, *ms.params, ms.w_over_l, vg, vd, vs);
        const double i_eq = lin.i_ds - ms.mg * (lin.d_vg * vg) - ms.md * (lin.d_vd * vd) -
                            ms.ms * (lin.d_vs * vs);
        gd[ms.j_dg] += lin.d_vg;
        gd[ms.j_dd] += lin.d_vd;
        gd[ms.j_ds] += lin.d_vs;
        rd[ms.rhs_d] -= i_eq;
        gd[ms.j_sg] -= lin.d_vg;
        gd[ms.j_sd] -= lin.d_vd;
        gd[ms.j_ss] -= lin.d_vs;
        rd[ms.rhs_s] += i_eq;
      }
    }

    // Solve + damped update per lane (identical to newton_solve_plan).
    for (std::size_t k = 0; k < act_.size(); ++k) {
      const std::size_t l = act_[k];
      if (it == 0 && fault_site_[l] != nullptr) {
        if (fault_site_[l]->kind == FaultPlan::Kind::NanStamp) {
          act_rhs_[k][0] = std::numeric_limits<double>::quiet_NaN();
        } else if (fault_site_[l]->kind == FaultPlan::Kind::SingularMatrix) {
          std::fill_n(act_g_[k], n, 0.0);  // zero row 0: factorization fails
        }
      }
      if (!ws_->solvers[l].factor_solve_in_place(std::span<double>(act_rhs_[k], n),
                                                 ws_->x_new)) {
        fail_[l] = 1;
        iter_spent_[l] = it + 1;
        continue;
      }
      double* __restrict xl = act_x_[k];
      const std::vector<double>& x_new = ws_->x_new;
      double max_delta = 0.0;
      for (std::size_t i = 0; i < nu; ++i) {
        const double delta =
            std::clamp(x_new[i] - xl[i], -options_.max_step_voltage, options_.max_step_voltage);
        max_delta = std::max(max_delta, std::abs(delta));
        xl[i] += delta;
      }
      for (std::size_t i = nu; i < n; ++i) xl[i] = x_new[i];
      bool finite = std::isfinite(max_delta);
      for (std::size_t i = 0; finite && i < n; ++i) finite = std::isfinite(xl[i]);
      if (!finite) {
        // Same early bail as newton_solve_plan: a poisoned iterate can
        // never converge, so don't burn the iteration budget on it.
        fail_[l] = 1;
        iter_spent_[l] = it + 1;
        continue;
      }
      if (max_delta < options_.vtol) {
        done_[l] = 1;
        ok_[l] = 1;
        iter_spent_[l] = it + 1;
        if (fault_site_[l] != nullptr &&
            fault_site_[l]->kind == FaultPlan::Kind::SlowConverge) {
          iter_spent_[l] += fault_site_[l]->extra_iterations;
        }
      }
    }
  }

  for (std::size_t l = 0; l < lanes; ++l) {
    if (alive_[l] && !done_[l] && !fail_[l]) {
      fail_[l] = 1;
      iter_spent_[l] = options_.max_newton_iterations;
    }
  }
}

std::vector<TransientResult> BatchSimulator::transient(const TransientSpec& spec,
                                                       const OpResult* dc_warm_start) {
  const std::size_t lanes = circuits_.size();
  std::vector<TransientResult> results(lanes);
  if (spec.dt <= 0.0 || spec.t_stop <= 0.0) {
    for (TransientResult& r : results) {
      r.failure.stage = FailureStage::Setup;
      r.failure.message = "transient: dt and t_stop must be positive";
      r.error = r.failure.to_string();
    }
    return results;
  }
  note_batch_group(lanes);

  ws_->prepare(lanes, padded_, n_, n_caps_);
  alive_.assign(lanes, 1);

  // --- per-lane initial state: DC (rolling warm-start seed) or UIC --------
  SimulatorWorkspace& sws = thread_local_workspace();
  OpResult rolling;
  const OpResult* seed = dc_warm_start;
  for (std::size_t l = 0; l < lanes; ++l) {
    const std::span<double> xl = ws_->lane_x(l);
    const StampPlan& plan = plans_[l];
    if (spec.use_ic) {
      for (const auto& [name, value] : spec.initial_conditions) {
        const NodeId node = circuits_[l]->find_node(name);
        if (node != Circuit::ground() && plan.node_is_unknown(node)) {
          xl[plan.x_slot(node)] = value;
        }
      }
      for (const Capacitor& c : circuits_[l]->capacitors()) {
        if (c.initial_voltage && c.b == Circuit::ground() && c.a != Circuit::ground() &&
            plan.node_is_unknown(c.a)) {
          xl[plan.x_slot(c.a)] = *c.initial_voltage;
        }
      }
      continue;
    }
    OpResult op = operating_point_plan(*circuits_[l], plans_[l], options_, sws, seed,
                                       &results[l].failure);
    if (!op.converged) {
      results[l].error = results[l].failure.to_string();
      alive_[l] = 0;
      continue;
    }
    if (!op.warm_started) {
      // Mirrors the sequential per-thread cache: a cold solve replaces the
      // stored seed, a successful warm start leaves it untouched.
      rolling = op;
      seed = &rolling;
    }
    for (NodeId nd = 1; nd < n_nodes_; ++nd) xl[plan.x_slot(nd)] = op.node_voltages[nd];
    for (std::size_t si = 0; si < n_vsrc_; ++si) {
      const std::size_t slot = plan.vsource_branch_slot(si);
      if (slot != StampPlan::kNoSlot) xl[slot] = op.vsource_currents[si];
    }
    results[l].dc_iterations = op.iterations;
    results[l].dc_op = std::move(op);
  }

  // --- recording setup (node ids are congruent; resolve once on lane 0) ---
  std::vector<NodeId> record_nodes;
  if (spec.record.empty()) {
    for (NodeId nd = 1; nd < n_nodes_; ++nd) record_nodes.push_back(nd);
  } else {
    for (const std::string& name : spec.record) {
      record_nodes.push_back(circuits_[0]->find_node(name));
    }
  }
  for (std::size_t l = 0; l < lanes; ++l) {
    if (!alive_[l]) continue;
    results[l].traces.reserve(record_nodes.size() + n_vsrc_);
    for (const NodeId nd : record_nodes) {
      results[l].traces.push_back(Trace{circuits_[l]->node_name(nd), {}});
    }
    for (const VoltageSource& v : circuits_[l]->vsources()) {
      results[l].traces.push_back(Trace{"I(" + v.name + ")", {}});
    }
  }

  std::vector<double> vsrc_i(n_vsrc_, 0.0);
  const auto record_lane = [&](std::size_t l, double time, bool recover_currents) {
    TransientResult& r = results[l];
    const double* xl = ws_->x.data() + l * ws_->x_stride;
    const StampPlan& plan = plans_[l];
    r.times.push_back(time);
    std::size_t ti = 0;
    for (const NodeId nd : record_nodes) r.traces[ti++].values.push_back(xl[plan.x_slot(nd)]);
    if (n_vsrc_ > 0) {
      if (recover_currents) {
        plan.vsource_currents(std::span<const double>(xl, padded_),
                              std::span<const double>(ws_->cap_current.data() + l * ws_->cap_stride,
                                                      ws_->cap_stride),
                              time, 1.0, vsrc_i);
      } else {
        std::fill(vsrc_i.begin(), vsrc_i.end(), 0.0);
      }
      for (std::size_t si = 0; si < n_vsrc_; ++si) r.traces[ti++].values.push_back(vsrc_i[si]);
    }
  };

  for (std::size_t l = 0; l < lanes; ++l) {
    if (alive_[l]) record_lane(l, 0.0, /*recover_currents=*/!spec.use_ic);
  }

  ws_->x_prev = ws_->x;

  const auto any_alive = [&] {
    for (std::size_t l = 0; l < lanes; ++l) {
      if (alive_[l]) return true;
    }
    return false;
  };
  const auto copy_lane = [&](std::vector<double>& dst, const std::vector<double>& src,
                             std::size_t l) {
    std::copy(src.begin() + static_cast<std::ptrdiff_t>(l * ws_->x_stride),
              src.begin() + static_cast<std::ptrdiff_t>(l * ws_->x_stride + padded_),
              dst.begin() + static_cast<std::ptrdiff_t>(l * ws_->x_stride));
  };

  if (!options_.adaptive_timestep) {
    // --- fixed uniform grid, lockstep (bit-identical to N scalar runs) ----
    const auto n_steps = static_cast<std::size_t>(std::ceil(spec.t_stop / spec.dt));
    double t_prev = 0.0;
    for (std::size_t step = 1; step <= n_steps && any_alive(); ++step) {
      double t = static_cast<double>(step) * spec.dt;
      if (step == n_steps || t > spec.t_stop) t = spec.t_stop;
      const double dt = t - t_prev;
      if (dt <= 0.0) break;
      const bool trap = step > 2;

      solve_step(t, dt, trap);

      for (std::size_t l = 0; l < lanes; ++l) {
        if (!alive_[l]) continue;
        results[l].newton_iterations += static_cast<std::uint64_t>(iter_spent_[l]);
        bool deadline_hit = lane_deadline(results[l]);
        bool rescued = false;
        if (!ok_[l]) {
          FailureReport& report = results[l].failure;
          // Capture the worst-residual row of the failed iterate now, while
          // the lane's plan still holds this solve's assembly.
          note_worst_residual(*circuits_[l], plans_[l],
                              std::span<const double>(ws_->x.data() + l * ws_->x_stride, padded_),
                              report);
          if (!deadline_hit && options_.recovery.enabled) {
            rescued = rescue_lane_step(l, t_prev, t, results[l], report.attempts, deadline_hit);
            if (rescued) note_recovered_transient();
          }
          if (!rescued) {
            report.stage = deadline_hit ? FailureStage::Deadline : FailureStage::TransientNewton;
            report.time = t;
            if (deadline_hit) note_deadline_abort();
            results[l].error = report.to_string();
            alive_[l] = 0;
            continue;
          }
        } else if (deadline_hit) {
          results[l].failure.stage = FailureStage::Deadline;
          results[l].failure.time = t;
          note_deadline_abort();
          results[l].error = results[l].failure.to_string();
          alive_[l] = 0;
          continue;
        }
        // A rescued lane's companion state was advanced by its substeps (or
        // reset by the DC restart); only the plain path integrates over dt.
        if (!rescued) update_caps_lane(l, dt, trap);
        record_lane(l, t, /*recover_currents=*/true);
        ++results[l].steps_accepted;
        results[l].dt_trace.push_back(dt);
        copy_lane(ws_->x_prev, ws_->x, l);
      }
      t_prev = t;
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      if (alive_[l]) results[l].ok = true;
    }
    return results;
  }

  // --- LTE-adaptive union grid ---------------------------------------------
  // The scalar controller (see Simulator::transient) run once for the whole
  // batch: every lane solves the same tentative step, the worst per-lane LTE
  // ratio decides accept/reject, and all live lanes advance together, so the
  // batch shares a single time axis.
  const double dt_min = spec.dt * options_.dt_min_factor;
  const double dt_max = spec.dt * options_.dt_max_factor;

  std::vector<double> breaks;
  for (const Circuit* c : circuits_) {
    for (const VoltageSource& v : c->vsources()) v.waveform.append_breakpoints(spec.t_stop, breaks);
    for (const CurrentSource& i : c->isources()) i.waveform.append_breakpoints(spec.t_stop, breaks);
  }
  breaks.push_back(spec.t_stop);
  std::sort(breaks.begin(), breaks.end());
  {
    std::size_t kept = 0;
    for (const double t : breaks) {
      if (kept != 0 && t - breaks[kept - 1] < dt_min) continue;
      breaks[kept++] = t;
    }
    breaks.resize(kept);
    if (breaks.back() != spec.t_stop) breaks.back() = spec.t_stop;
  }

  // Accepted-history for the divided-difference LTE estimate: times are
  // shared across the batch (one union grid), node voltages are lane-strided.
  std::array<std::vector<double>, 3> hist_x;
  for (auto& h : hist_x) h.assign(lanes * nu_, 0.0);
  std::array<double, 3> hist_t{};
  std::size_t hist_n = 0;
  const auto push_history = [&](double t) {
    if (hist_n == 3) {
      std::vector<double> recycled = std::move(hist_x[0]);
      hist_x[0] = std::move(hist_x[1]);
      hist_x[1] = std::move(hist_x[2]);
      hist_x[2] = std::move(recycled);
      hist_t[0] = hist_t[1];
      hist_t[1] = hist_t[2];
      --hist_n;
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      if (!alive_[l]) continue;
      const double* xp = ws_->x_prev.data() + l * ws_->x_stride;
      std::copy(xp, xp + nu_, hist_x[hist_n].data() + l * nu_);
    }
    hist_t[hist_n] = t;
    ++hist_n;
  };
  push_history(0.0);

  const auto lane_lte_ratio = [&](std::size_t l, double t_new, bool trap) {
    const std::size_t need = trap ? 3 : 2;
    if (hist_n < need) return 0.0;
    const std::size_t m = need;
    double ts[4];
    const double* hx[3];
    for (std::size_t k = 0; k < need; ++k) {
      ts[k] = hist_t[hist_n - need + k];
      hx[k] = hist_x[hist_n - need + k].data() + l * nu_;
    }
    ts[m] = t_new;
    const double dt_new = t_new - ts[m - 1];
    const double* xn = ws_->x.data() + l * ws_->x_stride;
    double worst = 0.0;
    for (std::size_t i = 0; i < nu_; ++i) {
      double f[4];
      for (std::size_t k = 0; k < need; ++k) f[k] = hx[k][i];
      f[m] = xn[i];
      for (std::size_t order = 1; order <= m; ++order) {
        for (std::size_t k = m; k >= order; --k) {
          f[k] = (f[k] - f[k - 1]) / (ts[k] - ts[k - order]);
        }
      }
      const double lte = trap ? 0.5 * dt_new * dt_new * dt_new * std::abs(f[m])
                              : dt_new * dt_new * std::abs(f[m]);
      const double tol =
          options_.lte_reltol * std::max(std::abs(xn[i]), std::abs(hx[m - 1][i])) +
          options_.lte_abstol;
      worst = std::max(worst, lte / tol);
    }
    return worst;
  };

  double t_cur = 0.0;
  double dt = std::clamp(spec.dt, dt_min, dt_max);
  std::size_t bp_i = 0;
  std::size_t since_reset = 0;
  std::uint64_t accepted_union = 0;
  std::uint64_t rejected_union = 0;

  while (t_cur < spec.t_stop && any_alive()) {
    while (bp_i < breaks.size() && breaks[bp_i] <= t_cur) ++bp_i;
    if (bp_i >= breaks.size()) break;  // unreachable: t_stop is a breakpoint
    const double bp = breaks[bp_i];

    dt = std::clamp(dt, dt_min, dt_max);
    double t_next = t_cur + dt;
    if (t_next > bp - dt_min) t_next = bp;
    const double dt_eff = t_next - t_cur;
    const bool trap = since_reset >= 2;

    for (std::size_t l = 0; l < lanes; ++l) {
      if (alive_[l]) copy_lane(ws_->x, ws_->x_prev, l);
    }
    solve_step(t_next, dt_eff, trap);

    bool any_fail = false;
    for (std::size_t l = 0; l < lanes; ++l) {
      if (!alive_[l]) continue;
      results[l].newton_iterations += static_cast<std::uint64_t>(iter_spent_[l]);
      if (lane_deadline(results[l])) {
        FailureReport& report = results[l].failure;
        report.stage = FailureStage::Deadline;
        report.time = t_next;
        if (!ok_[l]) {
          note_worst_residual(*circuits_[l], plans_[l],
                              std::span<const double>(ws_->x.data() + l * ws_->x_stride, padded_),
                              report);
        }
        note_deadline_abort();
        results[l].error = report.to_string();
        alive_[l] = 0;
        continue;
      }
      if (!ok_[l]) any_fail = true;
    }
    if (!any_alive()) break;
    if (any_fail) {
      if (dt_eff <= dt_min * (1.0 + 1e-9)) {
        // No smaller step to retreat to: last recovery rung per failing lane
        // is a bounded restart from a pseudo-DC point with the sources
        // frozen at t_next; unrescued lanes are lost while the rest of the
        // batch carries on with this (solved) step.
        rescued_.assign(lanes, 0);
        bool any_rescued = false;
        for (std::size_t l = 0; l < lanes; ++l) {
          if (!alive_[l] || ok_[l]) continue;
          FailureReport& report = results[l].failure;
          report.time = t_next;
          note_worst_residual(*circuits_[l], plans_[l],
                              std::span<const double>(ws_->x.data() + l * ws_->x_stride, padded_),
                              report);
          bool deadline_hit = false;
          bool rescued = false;
          if (options_.recovery.enabled) {
            for (int restart = 0; restart < options_.recovery.dc_restart_attempts; ++restart) {
              ++report.attempts;
              OpResult op = operating_point_plan(*circuits_[l], plans_[l], options_, sws, nullptr,
                                                 nullptr, t_next);
              results[l].newton_iterations += static_cast<std::uint64_t>(op.iterations);
              if (lane_deadline(results[l])) {
                deadline_hit = true;
                break;
              }
              if (!op.converged) continue;
              double* xl = ws_->x.data() + l * ws_->x_stride;
              std::fill(xl, xl + padded_, 0.0);
              for (NodeId nd = 1; nd < n_nodes_; ++nd) {
                xl[plans_[l].x_slot(nd)] = op.node_voltages[nd];
              }
              for (std::size_t si = 0; si < n_vsrc_; ++si) {
                const std::size_t slot = plans_[l].vsource_branch_slot(si);
                if (slot != StampPlan::kNoSlot) xl[slot] = op.vsource_currents[si];
              }
              double* cc = ws_->cap_current.data() + l * ws_->cap_stride;
              std::fill(cc, cc + n_caps_, 0.0);
              rescued = true;
              note_recovered_transient();
              break;
            }
          }
          if (!rescued) {
            report.stage = deadline_hit ? FailureStage::Deadline : FailureStage::Timestep;
            if (deadline_hit) note_deadline_abort();
            results[l].error = report.to_string();
            alive_[l] = 0;
            continue;
          }
          rescued_[l] = 1;
          any_rescued = true;
        }
        if (!any_alive()) break;
        if (any_rescued) {
          // Accept the step for every live lane (rescued lanes' companion
          // state was reset by the restart, so they skip the cap update) and
          // reset the shared controller exactly as a breakpoint does.
          for (std::size_t l = 0; l < lanes; ++l) {
            if (!alive_[l]) continue;
            if (!rescued_[l]) update_caps_lane(l, dt_eff, trap);
            record_lane(l, t_next, /*recover_currents=*/true);
            ++results[l].steps_accepted;
            results[l].dt_trace.push_back(dt_eff);
            copy_lane(ws_->x_prev, ws_->x, l);
          }
          ++accepted_union;
          t_cur = t_next;
          since_reset = 0;
          hist_n = 0;
          push_history(t_next);
          dt = std::clamp(spec.dt, dt_min, dt_max);
          continue;
        }
      } else {
        for (std::size_t l = 0; l < lanes; ++l) {
          if (alive_[l]) ++results[l].steps_rejected;
        }
        ++rejected_union;
        dt = std::max(dt_min, dt_eff * options_.dt_shrink_limit);
        continue;
      }
    }

    double ratio = 0.0;
    for (std::size_t l = 0; l < lanes; ++l) {
      if (alive_[l]) ratio = std::max(ratio, lane_lte_ratio(l, t_next, trap));
    }
    if (ratio > 1.0 && dt_eff > dt_min * (1.0 + 1e-9)) {
      for (std::size_t l = 0; l < lanes; ++l) {
        if (alive_[l]) ++results[l].steps_rejected;
      }
      ++rejected_union;
      const double p = trap ? 3.0 : 2.0;
      const double shrink = std::clamp(options_.lte_safety * std::pow(ratio, -1.0 / p),
                                       options_.dt_shrink_limit, 0.9);
      dt = std::max(dt_min, dt_eff * shrink);
      continue;
    }

    for (std::size_t l = 0; l < lanes; ++l) {
      if (!alive_[l]) continue;
      update_caps_lane(l, dt_eff, trap);
      record_lane(l, t_next, /*recover_currents=*/true);
      ++results[l].steps_accepted;
      results[l].dt_trace.push_back(dt_eff);
      copy_lane(ws_->x_prev, ws_->x, l);
    }
    ++accepted_union;
    t_cur = t_next;

    if (t_next == bp) {
      since_reset = 0;
      hist_n = 0;
      push_history(t_next);
      dt = std::clamp(spec.dt, dt_min, dt_max);
    } else {
      ++since_reset;
      push_history(t_next);
      const double p = trap ? 3.0 : 2.0;
      const double grow = ratio > 0.0
                              ? std::clamp(options_.lte_safety * std::pow(ratio, -1.0 / p),
                                           options_.dt_shrink_limit, options_.dt_grow_limit)
                              : options_.dt_grow_limit;
      dt = dt_eff * grow;
    }
  }

  note_lte_steps(accepted_union, rejected_union);
  for (std::size_t l = 0; l < lanes; ++l) {
    if (alive_[l]) results[l].ok = true;
  }
  return results;
}

}  // namespace glova::spice
