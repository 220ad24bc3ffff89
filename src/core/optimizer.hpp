// The GLOVA optimization loop (paper Fig. 2, Secs. III-C and IV):
//
//   0. TuRBO generates design solutions meeting constraints at the typical
//      condition (initial sampling adopted from PVTSizing [9]).
//   1. The actor proposes a new design from the last one.
//   2. The worst PVT corner is selected from the last-worst-case buffer and
//      N' mismatch conditions are sampled via Eq. (3).
//   3. The design is simulated under those conditions.
//   4. The mu-sigma metric decides whether full verification is worthwhile.
//   5. If so, Algorithm 2 verifies with reordered PVT conditions; success
//      terminates the framework.
//   6. Otherwise the worst reward is stored in the replay buffer and the
//      risk-sensitive agent is updated (Algorithm 1).
//
// The loop is a step-driven session: each core::Optimizer::step() performs
// one Fig. 2 iteration (the first also runs step 0 + the initial dataset),
// so callers can interleave, observe, budget, or cancel without forking the
// algorithm.  run() remains the thin to-termination loop.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "circuits/testbench.hpp"
#include "core/config.hpp"
#include "core/evaluation_engine.hpp"
#include "core/optimizer_base.hpp"
#include "core/verifier.hpp"
#include "rl/agent.hpp"

namespace glova::core {

struct GlovaConfig {
  VerifMethod method = VerifMethod::C;
  std::string corner_filter = "all";  ///< RunSpec `corner_filter` (docs/run_spec.md)
  std::size_t n_opt_samples = 3;      ///< N' (paper: parallel sample size 3)
  double beta1 = -3.0;                ///< risk-avoidance (Eq. 6)
  double beta2 = 4.0;                 ///< reliability factor (Eq. 7)
  std::size_t batch_size = 10;        ///< replay batch (paper Sec. VI-B)
  std::size_t ensemble_size = 5;
  std::size_t hidden = 64;
  std::size_t max_iterations = 3000;  ///< success-rate cap
  std::size_t turbo_budget = 150;     ///< typical-condition evals for init
  std::size_t init_buffer_seeds = 6;  ///< extra TuRBO designs seeding the buffer
  bool use_ensemble_critic = true;    ///< ablation "w/o EC": single base model
  bool use_mu_sigma = true;           ///< ablation "w/o mu-sigma"
  bool use_reordering = true;         ///< ablation "w/o SR"
  std::uint64_t seed = 1;
  SimulationCost cost;
  EngineConfig engine;                ///< evaluation-stack knobs (parallelism, cache)
};

class GlovaOptimizer final : public Optimizer {
 public:
  GlovaOptimizer(circuits::TestbenchPtr testbench, GlovaConfig config);
  ~GlovaOptimizer() override;

  [[nodiscard]] const OperationalConfig& operational_config() const { return op_config_; }
  [[nodiscard]] const char* algorithm_name() const override { return "GLOVA"; }

 protected:
  void do_start() override;
  bool do_step() override;
  void do_save_state(std::ostream& os) const override;
  void do_load_state(std::istream& is) override;
  [[nodiscard]] const EvaluationEngine* engine_ptr() const override;
  [[nodiscard]] const SimulationCost& cost() const override { return config_.cost; }

 private:
  /// Per-run state hoisted from the legacy run() stack (engine, RNG streams,
  /// TuRBO-seeded buffers, agent, verifier); created lazily on first step.
  struct Session;

  /// The agent/verifier configurations derived from config_, shared by
  /// do_start and do_load_state so a restored agent is built exactly like
  /// the saved one.
  [[nodiscard]] rl::AgentConfig agent_config() const;
  [[nodiscard]] VerifierOptions verifier_options() const;

  circuits::TestbenchPtr testbench_;
  GlovaConfig config_;
  OperationalConfig op_config_;
  std::unique_ptr<Session> s_;
};

}  // namespace glova::core
