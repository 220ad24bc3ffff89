// RobustAnalog baseline (He et al., MLCAD 2022 [8]): fast variation-aware
// sizing via multi-task RL, reimplemented from its published description for
// Table II.
//
// Characteristics the paper's comparison isolates:
//   - random initial sampling (no TuRBO) — the limitation PVTSizing fixed,
//   - every PVT corner is a task; k-means clustering of the corners'
//     performance signatures prunes the task set to the dominant corner of
//     each cluster, which is what gets simulated each iteration,
//   - periodic re-clustering (full corner sweeps on the incumbent design),
//   - risk-neutral critic; verification without mu-sigma or reordering.
//
// Like every optimizer here, it is a step-driven core::Optimizer session:
// one step() = one RL iteration, observable/cancelable from outside.
#pragma once

#include <memory>
#include <span>

#include "circuits/testbench.hpp"
#include "core/optimizer.hpp"

namespace glova::baselines {

struct RobustAnalogConfig {
  core::VerifMethod method = core::VerifMethod::C;
  std::string corner_filter = "all";  ///< RunSpec `corner_filter` (docs/run_spec.md)
  std::size_t n_opt_samples = 3;
  std::size_t batch_size = 10;
  std::size_t hidden = 64;
  std::size_t max_iterations = 3000;
  std::size_t random_init_samples = 20;
  std::size_t clusters = 4;             ///< dominant-corner count
  std::size_t recluster_interval = 25;  ///< iterations between corner sweeps
  std::uint64_t seed = 1;
  core::SimulationCost cost;
  core::EngineConfig engine;
};

class RobustAnalogOptimizer final : public core::Optimizer {
 public:
  RobustAnalogOptimizer(circuits::TestbenchPtr testbench, RobustAnalogConfig config);
  ~RobustAnalogOptimizer() override;

  [[nodiscard]] const char* algorithm_name() const override { return "RobustAnalog"; }

 protected:
  void do_start() override;
  bool do_step() override;
  void do_save_state(std::ostream& os) const override;
  void do_load_state(std::istream& is) override;
  [[nodiscard]] const core::EvaluationEngine* engine_ptr() const override;
  [[nodiscard]] const core::SimulationCost& cost() const override { return config_.cost; }

 private:
  struct Session;

  /// Corner sweep of the incumbent -> k-means -> dominant corner per cluster.
  void recluster(std::span<const double> x01);

  /// Shared by do_start and do_load_state so a restored agent/verifier is
  /// configured exactly like the saved one.
  [[nodiscard]] rl::AgentConfig agent_config() const;
  [[nodiscard]] core::VerifierOptions verifier_options() const;

  circuits::TestbenchPtr testbench_;
  RobustAnalogConfig config_;
  core::OperationalConfig op_config_;
  std::unique_ptr<Session> s_;
};

}  // namespace glova::baselines
