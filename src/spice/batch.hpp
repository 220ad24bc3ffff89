// Batched mismatch-draw evaluator: march N structurally congruent circuits
// (same topology, element order, and node order — only parameter values,
// capacitances, and source waveforms differing, i.e. mismatch draws of one
// (design, corner) cell) through a single transient in lockstep.
//
// Per Newton iteration the batch runs one structure-of-arrays pass:
//   1. per-lane linear load (memcpy of each lane's cached static matrix),
//   2. a device-major MOSFET companion pass — every lane of device 0, then
//      every lane of device 1, ... — so the model evaluation streams through
//      lane-strided solution buffers instead of jumping matrix to matrix,
//   3. per-lane fused LU factor+solve and the damped update.
// Within a lane the arithmetic (order included) is exactly the scalar
// Simulator's Newton iteration, so with adaptive stepping off a batched run
// is bit-identical to N sequential runs.  Converged lanes freeze (their
// iterate is no longer touched) while the rest keep iterating; a lane whose
// solve fails is isolated — its TransientResult reports the error and the
// remaining lanes finish normally.
//
// With SimulatorOptions::adaptive_timestep the controller of the scalar
// Simulator runs once for the whole batch on a union grid: every lane is
// solved at the same tentative step, the worst per-lane LTE ratio decides
// accept/reject, and all live lanes advance (or redo) together, so traces
// share one time axis across the batch.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "spice/circuit.hpp"
#include "spice/lu.hpp"
#include "spice/simulator.hpp"

namespace glova::spice {

/// Lane-strided structure-of-arrays state for the batched Newton loop: the
/// padded solution buffers hold lane l at [l * x_stride, l * x_stride +
/// padded), rounded up so lanes start on cache-line boundaries.  Every
/// buffer is fully overwritten by BatchSimulator::transient, so one
/// workspace can be reused across groups of any shape; like
/// SimulatorWorkspace it is single-threaded state — use one per thread.
struct BatchWorkspace {
  std::size_t lanes = 0;
  std::size_t x_stride = 0;    ///< padded_size rounded up to 8 doubles
  std::size_t rhs_stride = 0;  ///< unknown_count + 1 rounded up to 8 doubles
  std::size_t cap_stride = 0;  ///< capacitor count
  std::vector<double> x;       ///< Newton iterate / trial step, lanes * x_stride
  std::vector<double> x_prev;  ///< last accepted timepoint, lanes * x_stride
  std::vector<double> rhs;     ///< companion RHS / residual, lanes * rhs_stride
  std::vector<double> cap_current;  ///< trapezoidal cap currents, lanes * cap_stride
  std::vector<LuSolver> solvers;    ///< per-lane matrix + factorization state
  std::vector<double> x_new;        ///< shared solve-output scratch (one lane)

  void prepare(std::size_t lane_count, std::size_t padded, std::size_t unknowns,
               std::size_t cap_count);

  [[nodiscard]] std::span<double> lane_x(std::size_t l) {
    return {x.data() + l * x_stride, x_stride};
  }
  [[nodiscard]] std::span<double> lane_x_prev(std::size_t l) {
    return {x_prev.data() + l * x_stride, x_stride};
  }
  [[nodiscard]] std::span<double> lane_rhs(std::size_t l) {
    return {rhs.data() + l * rhs_stride, rhs_stride};
  }
  [[nodiscard]] std::span<double> lane_cap(std::size_t l) {
    return {cap_current.data() + l * cap_stride, cap_stride};
  }
};

/// The calling thread's shared batch workspace (the batched analogue of
/// thread_local_workspace()).
[[nodiscard]] BatchWorkspace& thread_local_batch_workspace();

class BatchSimulator {
 public:
  /// `lanes` are the per-draw circuits; they must outlive the simulator
  /// (compiled plans point into them).  Throws std::invalid_argument unless
  /// every lane is structurally congruent with lane 0: same node table and
  /// per-type element counts, with every element's terminal nodes matching
  /// elementwise (values — R/C/W-L/waveforms/model parameters — are free to
  /// differ; that is the mismatch).  `workspace` as in Simulator: nullptr
  /// selects the calling thread's shared BatchWorkspace.
  explicit BatchSimulator(std::span<const Circuit> lanes, SimulatorOptions options = {},
                          BatchWorkspace* workspace = nullptr);

  [[nodiscard]] std::size_t lane_count() const { return circuits_.size(); }

  /// Lockstep transient over every lane; results are per lane, in input
  /// order.  `dc_warm_start` seeds lane 0's DC solve; inside the batch the
  /// seed rolls forward exactly as the sequential per-thread DC cache would:
  /// whenever a lane cold-solves (its warm start was absent or failed), its
  /// operating point becomes the seed for the lanes after it.  Per-lane
  /// dc_op / warm_started are reported as the sequential path would, so
  /// callers can keep their warm-start cache and statistics in sync.
  [[nodiscard]] std::vector<TransientResult> transient(const TransientSpec& spec,
                                                       const OpResult* dc_warm_start = nullptr);

 private:
  /// One lockstep Newton solve at (time, dt) for every lane with alive_[l]:
  /// iterate is ws_->x (entered as the initial guess), previous timepoint
  /// ws_->x_prev.  Per-lane success lands in ok_[l], iterations spent in
  /// iter_spent_[l].
  void solve_step(double time, double dt, bool trapezoidal);
  void update_caps_lane(std::size_t l, double dt, bool trapezoidal);
  /// Per-lane convergence recovery for a failed fixed-grid step over
  /// [t_prev, t]: scalar backward-Euler substep cutting, then a bounded
  /// restart-from-DC rung — only lane l's state is touched, the other lanes
  /// stay frozen at their solved step.  On success the lane's iterate and
  /// capacitor currents hold the state at t.
  [[nodiscard]] bool rescue_lane_step(std::size_t l, double t_prev, double t,
                                      TransientResult& result, int& attempts,
                                      bool& deadline_hit);
  /// Cooperative per-lane deadline (DC + transient iterations combined).
  [[nodiscard]] bool lane_deadline(const TransientResult& result) const {
    return deadline_exceeded(options_, static_cast<std::uint64_t>(result.dc_iterations) +
                                           result.newton_iterations);
  }

  std::vector<const Circuit*> circuits_;
  SimulatorOptions options_;
  BatchWorkspace* ws_;
  std::vector<StampPlan> plans_;
  std::size_t n_ = 0;       ///< solved unknowns (congruent across lanes)
  std::size_t nu_ = 0;      ///< unknown node voltages
  std::size_t padded_ = 0;  ///< padded solution length
  std::size_t n_nodes_ = 0;
  std::size_t n_vsrc_ = 0;
  std::size_t n_caps_ = 0;

  // Per-run / per-solve lane state (members so the hot loop never allocates).
  std::vector<char> alive_;      ///< lane still marching (no DC/Newton failure)
  std::vector<char> ok_;         ///< per-solve success
  std::vector<char> done_;       ///< per-solve converged (frozen)
  std::vector<char> fail_;       ///< per-solve failure
  std::vector<int> iter_spent_;  ///< per-solve Newton iterations
  std::vector<std::size_t> act_; ///< compacted active-lane list
  std::vector<double*> act_g_;   ///< cached matrix pointers for act_
  std::vector<double*> act_rhs_;
  std::vector<double*> act_x_;
  std::vector<const FaultPlan::Site*> fault_site_;  ///< per-solve injected fault
  std::vector<char> rescued_;       ///< per-step: lane recovered via rescue
};

}  // namespace glova::spice
