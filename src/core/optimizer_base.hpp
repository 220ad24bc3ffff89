// Step-driven optimizer sessions: the control-plane API of the repo.
//
// Every optimization algorithm (GLOVA, PVTSizing, RobustAnalog) is a
// `core::Optimizer` — a resumable session driven one iteration at a time:
//
//   auto opt = core::make_optimizer(spec);        // see run_spec.hpp
//   while (!opt->done()) opt->step();             // external control loop
//   const core::GlovaResult& res = opt->result();
//
// `run()` survives as a thin loop over `step()` and produces bit-identical
// fixed-seed results (tests/test_optimizer_session.cpp pins the parity; the
// pinned-seed regression pins the absolute numbers).  Callers observe
// progress through `RunObserver` (one callback per iteration, carrying the
// `IterationTrace` row plus an `EngineStats` snapshot) and bound a session
// with `RunBudget` (simulations / iterations / wall-clock) or `cancel()` —
// both terminate with a well-formed partial result, no algorithm forked.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/evaluation_engine.hpp"

namespace glova::core {

/// One row of the per-iteration trace (Fig. 3 reproduction).
struct IterationTrace {
  std::size_t iteration = 0;
  double reward_worst = 0.0;        ///< sampled worst-case reward of x_new
  double critic_mean = 0.0;         ///< E[Q_i(x_new)]
  double critic_bound = 0.0;        ///< E + beta1 * sigma (Eq. 6)
  bool mu_sigma_pass = false;       ///< step-4 gate outcome
  bool attempted_verification = false;
  std::uint64_t sims_total = 0;     ///< cumulative simulations
};

struct GlovaResult {
  bool success = false;             ///< true iff full verification passed
  std::size_t rl_iterations = 0;    ///< completed main-loop iterations
  /// Requested simulations — the paper's "# Simulation" column.  Cache hits
  /// count: the optimizer asked for them whether or not they had to run.
  std::uint64_t n_simulations = 0;
  /// Simulations the engine actually ran (n_simulations - n_cache_hits).
  std::uint64_t n_simulations_executed = 0;
  std::uint64_t n_cache_hits = 0;
  /// Full evaluation-funnel snapshot (requested/executed/cache-hit plus the
  /// SPICE counters), identical across GLOVA and both baselines so Table II
  /// comparisons read from one funnel.
  EngineStats engine_stats;
  double wall_seconds = 0.0;        ///< measured wall time (timing; excluded
                                    ///< from bit-identical parity checks)
  double modeled_runtime = 0.0;     ///< sims * t_sim + iterations * t_iter
  std::uint64_t turbo_evaluations = 0;  ///< typical-condition init samples
  std::vector<double> x01_final;    ///< verified design (normalized), if any
  std::vector<double> x_phys_final; ///< verified design (physical units)
  std::vector<IterationTrace> trace;
  std::string termination;          ///< "verified" / "iteration-cap" / ...
};

/// Line-oriented text serialization of a GlovaResult (final or partial);
/// doubles round-trip via max_digits10.  One shared codec: campaign
/// checkpoints (every version) and optimizer session state embed results in
/// exactly this byte form.
void write_glova_result(std::ostream& os, const GlovaResult& r);
[[nodiscard]] GlovaResult read_glova_result(std::istream& is);

/// Session-level resource limits, enforced after every step.  0 = unlimited.
/// `max_iterations` here is a cross-algorithm cap on top of whatever
/// iteration limit the algorithm's own config carries.
struct RunBudget {
  std::uint64_t max_simulations = 0;
  std::size_t max_iterations = 0;
  double max_wall_seconds = 0.0;

  /// The termination reason this budget assigns to the given usage, or
  /// nullptr while everything is within limits.
  [[nodiscard]] const char* exceeded_by(std::uint64_t simulations, std::size_t iterations,
                                        double wall_seconds) const;

  friend bool operator==(const RunBudget&, const RunBudget&) = default;
};

class Optimizer;

/// Progress callbacks.  `on_iteration` fires once per completed step with
/// the trace row the step produced and a fresh engine-stats snapshot; the
/// non-const session reference lets observers call `cancel()` (budget
/// enforcement, early stopping).  Callbacks run on the driving thread.
class RunObserver {
 public:
  virtual ~RunObserver() = default;
  virtual void on_start(Optimizer& /*session*/) {}
  virtual void on_iteration(Optimizer& /*session*/, const IterationTrace& /*trace*/,
                            const EngineStats& /*stats*/) {}
  virtual void on_finish(Optimizer& /*session*/, const GlovaResult& /*result*/) {}
};

/// Abstract optimizer session.  Derived classes hoist their former run()
/// stack state into members and implement do_start/do_step; this base owns
/// the loop protocol, budgets, cancellation, observers, and the common
/// result finalization (engine stats, wall time, modeled runtime).
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Perform one optimization iteration (the first call also runs the
  /// algorithm's initialization).  Returns true if work was done, false if
  /// the session had already finished.
  bool step();

  /// True once the session has terminated (verified, capped, budget-stopped,
  /// or cancelled).  No further step() will do work.
  [[nodiscard]] bool done() const { return finished_; }

  /// The finalized result.  Valid only once done(); throws std::logic_error
  /// while the session is still running.
  [[nodiscard]] const GlovaResult& result() const;

  /// Run the session to termination: a thin loop over step().
  [[nodiscard]] GlovaResult run();

  /// Request termination.  Mid-run (from an observer) the current step
  /// completes and the session finishes with `termination == reason`; called
  /// between steps the session finishes immediately with a well-formed
  /// partial result.
  void cancel(std::string reason = "cancelled");
  [[nodiscard]] bool cancel_requested() const { return cancel_requested_; }

  /// Session budget, enforced by the base after every step (the sibling
  /// BudgetObserver offers the same checks for externally shared budgets).
  void set_budget(RunBudget budget) { budget_ = budget; }
  [[nodiscard]] const RunBudget& budget() const { return budget_; }

  void add_observer(std::shared_ptr<RunObserver> observer);

  [[nodiscard]] virtual const char* algorithm_name() const = 0;

  /// Serialize the live session — the partial result plus the algorithm's
  /// full internal state (agent weights, RNG streams, buffers, engine
  /// counters/cache) — so an identically configured fresh session restored
  /// via load_state() continues bit-identically without replaying a single
  /// step.  Only a started, unfinished session can be saved; throws
  /// std::logic_error otherwise (terminal sessions are captured by their
  /// result, fresh ones by their spec).
  void save_state(std::ostream& os) const;

  /// Restore a session saved by save_state().  Must be called on a fresh
  /// session (no step() yet) constructed with the same configuration and
  /// testbench; the session is `started` afterwards and the next step()
  /// continues where the saved one left off.  Observer on_start callbacks do
  /// not re-fire.  Throws std::logic_error on protocol misuse and
  /// std::runtime_error on malformed state.
  void load_state(std::istream& is);

  /// Iterations completed so far (== result().rl_iterations when done).
  [[nodiscard]] std::size_t iterations_completed() const { return result_.rl_iterations; }

  /// The session's evaluation engine; nullptr before the first step.
  [[nodiscard]] const EvaluationEngine* engine() const { return engine_ptr(); }

  /// Seconds since the first step (0 before it).
  [[nodiscard]] double elapsed_seconds() const;

 protected:
  /// One-time initialization (engine construction, initial sampling, agent
  /// warm-up).  Runs inside the first step().
  virtual void do_start() = 0;
  /// One iteration of the algorithm's main loop.  Returns true while more
  /// work remains, false when the algorithm has terminated on its own
  /// (verified, or its configured iteration cap was reached).
  virtual bool do_step() = 0;
  /// Algorithm-specific result fields beyond the common finalization.
  virtual void do_finalize(GlovaResult& /*result*/) {}
  /// Algorithm-specific state serialization behind save_state()/load_state().
  virtual void do_save_state(std::ostream& os) const = 0;
  virtual void do_load_state(std::istream& is) = 0;
  [[nodiscard]] virtual const EvaluationEngine* engine_ptr() const = 0;
  [[nodiscard]] virtual const SimulationCost& cost() const = 0;

  GlovaResult result_;

 private:
  void finish();

  bool started_ = false;
  bool finished_ = false;
  bool in_step_ = false;
  bool cancel_requested_ = false;
  std::string cancel_reason_;
  RunBudget budget_;
  std::vector<std::shared_ptr<RunObserver>> observers_;
  std::chrono::steady_clock::time_point t0_{};
  /// Wall seconds accrued before a load_state() restore; elapsed_seconds()
  /// (and thus wall-clock budgets) count across process restarts.
  double wall_offset_ = 0.0;
};

// ---------------------------------------------------------------------------
// Built-in observers.

/// Logs one line every `every` iterations (and on start/finish) via log_info.
class ProgressLogObserver final : public RunObserver {
 public:
  explicit ProgressLogObserver(std::size_t every = 25);
  void on_start(Optimizer& session) override;
  void on_iteration(Optimizer& session, const IterationTrace& trace,
                    const EngineStats& stats) override;
  void on_finish(Optimizer& session, const GlovaResult& result) override;

 private:
  std::size_t every_;
};

/// Cancels the session when an externally supplied budget is exhausted —
/// the observer-side twin of Optimizer::set_budget, for attaching a limit
/// after construction.  The checks read the observed session's own usage,
/// so use one instance per session (a fleet-wide shared budget would need
/// aggregate accounting this observer does not do).
class BudgetObserver final : public RunObserver {
 public:
  explicit BudgetObserver(RunBudget budget) : budget_(budget) {}
  void on_iteration(Optimizer& session, const IterationTrace& trace,
                    const EngineStats& stats) override;

 private:
  RunBudget budget_;
};

/// Cancels after `patience` consecutive iterations without the sampled
/// worst-case reward improving by more than `min_improvement`.
class EarlyStopObserver final : public RunObserver {
 public:
  explicit EarlyStopObserver(std::size_t patience, double min_improvement = 0.0);
  void on_iteration(Optimizer& session, const IterationTrace& trace,
                    const EngineStats& stats) override;

 private:
  std::size_t patience_;
  double min_improvement_;
  std::size_t stalled_ = 0;
  double best_ = 0.0;
  bool has_best_ = false;
};

}  // namespace glova::core
