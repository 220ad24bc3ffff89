// PVTSizing baseline (Kong et al., DAC 2024 [9]): a TuRBO-RL batch-sampling
// framework for PVT-robust analog synthesis, reimplemented from its published
// description for Table II.
//
// Differences from GLOVA that the paper's comparison isolates:
//   - batch sampling: EVERY predefined corner is simulated at every RL
//     iteration (k x N' simulations per step instead of GLOVA's N' at the
//     single worst corner),
//   - risk-neutral critic: one Q network, no ensemble bound (beta1 = 0),
//   - verification: a full k x N sweep with neither the mu-sigma gate nor
//     simulation reordering (it still aborts at the first failing run).
// Shared with GLOVA: TuRBO initial sampling at the typical condition.
//
// Like every optimizer here, it is a step-driven core::Optimizer session:
// one step() = one RL iteration, observable/cancelable from outside.
#pragma once

#include <memory>

#include "circuits/testbench.hpp"
#include "core/optimizer.hpp"

namespace glova::baselines {

struct PvtSizingConfig {
  core::VerifMethod method = core::VerifMethod::C;
  std::string corner_filter = "all";  ///< RunSpec `corner_filter` (docs/run_spec.md)
  std::size_t n_opt_samples = 3;
  std::size_t batch_size = 10;
  std::size_t hidden = 64;
  std::size_t max_iterations = 3000;
  std::size_t turbo_budget = 150;
  std::uint64_t seed = 1;
  core::SimulationCost cost;
  core::EngineConfig engine;
};

class PvtSizingOptimizer final : public core::Optimizer {
 public:
  PvtSizingOptimizer(circuits::TestbenchPtr testbench, PvtSizingConfig config);
  ~PvtSizingOptimizer() override;

  [[nodiscard]] const char* algorithm_name() const override { return "PVTSizing"; }

 protected:
  void do_start() override;
  bool do_step() override;
  void do_save_state(std::ostream& os) const override;
  void do_load_state(std::istream& is) override;
  [[nodiscard]] const core::EvaluationEngine* engine_ptr() const override;
  [[nodiscard]] const core::SimulationCost& cost() const override { return config_.cost; }

 private:
  struct Session;

  /// Shared by do_start and do_load_state so a restored agent/verifier is
  /// configured exactly like the saved one.
  [[nodiscard]] rl::AgentConfig agent_config() const;
  [[nodiscard]] core::VerifierOptions verifier_options() const;

  circuits::TestbenchPtr testbench_;
  PvtSizingConfig config_;
  core::OperationalConfig op_config_;
  std::unique_ptr<Session> s_;
};

}  // namespace glova::baselines
