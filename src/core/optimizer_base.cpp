#include "core/optimizer_base.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/log.hpp"
#include "common/state_io.hpp"
#include "common/text.hpp"

namespace glova::core {

// ---------------------------------------------------------------------------
// GlovaResult text codec, shared by campaign checkpoints and optimizer state.

void write_glova_result(std::ostream& os, const GlovaResult& r) {
  os << "result " << (r.success ? 1 : 0) << ' ' << r.rl_iterations << ' ' << r.n_simulations
     << ' ' << r.n_simulations_executed << ' ' << r.n_cache_hits << ' ' << r.turbo_evaluations
     << ' ' << format_double_roundtrip(r.wall_seconds) << ' '
     << format_double_roundtrip(r.modeled_runtime) << '\n';
  // The last three fields are the always-zero dc_warm_* counters, kept so
  // the checkpoint layout does not change before the next benchmark change.
  os << "stats " << r.engine_stats.requested << ' ' << r.engine_stats.executed << ' '
     << r.engine_stats.cache_hits << ' ' << r.engine_stats.dc_warm_hits << ' '
     << r.engine_stats.dc_warm_misses << ' ' << r.engine_stats.dc_warm_stores << '\n';
  os << "termination " << state::one_line(r.termination) << '\n';
  state::write_doubles(os, "x01", r.x01_final);
  state::write_doubles(os, "xphys", r.x_phys_final);
  os << "trace " << r.trace.size() << '\n';
  for (const IterationTrace& t : r.trace) {
    os << "t " << t.iteration << ' ' << format_double_roundtrip(t.reward_worst) << ' '
       << format_double_roundtrip(t.critic_mean) << ' '
       << format_double_roundtrip(t.critic_bound) << ' ' << (t.mu_sigma_pass ? 1 : 0) << ' '
       << (t.attempted_verification ? 1 : 0) << ' ' << t.sims_total << '\n';
  }
}

GlovaResult read_glova_result(std::istream& is) {
  GlovaResult r;
  {
    std::istringstream line(state::expect_line(is, "result"));
    int success = 0;
    if (!(line >> success >> r.rl_iterations >> r.n_simulations >> r.n_simulations_executed >>
          r.n_cache_hits >> r.turbo_evaluations >> r.wall_seconds >> r.modeled_runtime)) {
      state::bad("malformed 'result' line");
    }
    r.success = success != 0;
  }
  {
    std::istringstream line(state::expect_line(is, "stats"));
    if (!(line >> r.engine_stats.requested >> r.engine_stats.executed >>
          r.engine_stats.cache_hits >> r.engine_stats.dc_warm_hits >>
          r.engine_stats.dc_warm_misses >> r.engine_stats.dc_warm_stores)) {
      state::bad("malformed 'stats' line");
    }
  }
  r.termination = state::expect_line(is, "termination");
  r.x01_final = state::read_doubles(is, "x01");
  r.x_phys_final = state::read_doubles(is, "xphys");
  const std::size_t trace_count =
      state::parse_u64(state::expect_line(is, "trace"), "trace count");
  if (trace_count > state::kMaxCount) {
    state::bad("implausible trace count " + std::to_string(trace_count));
  }
  r.trace.reserve(trace_count);
  for (std::size_t i = 0; i < trace_count; ++i) {
    std::istringstream line(state::expect_line(is, "t"));
    IterationTrace t;
    int mu = 0;
    int att = 0;
    if (!(line >> t.iteration >> t.reward_worst >> t.critic_mean >> t.critic_bound >> mu >>
          att >> t.sims_total)) {
      state::bad("malformed trace row");
    }
    t.mu_sigma_pass = mu != 0;
    t.attempted_verification = att != 0;
    r.trace.push_back(t);
  }
  return r;
}

const char* RunBudget::exceeded_by(std::uint64_t simulations, std::size_t iterations,
                                   double wall_seconds) const {
  if (max_simulations != 0 && simulations >= max_simulations) return "simulation-budget";
  if (max_iterations != 0 && iterations >= max_iterations) return "iteration-budget";
  if (max_wall_seconds > 0.0 && wall_seconds >= max_wall_seconds) return "wall-clock-budget";
  return nullptr;
}

double Optimizer::elapsed_seconds() const {
  if (!started_) return 0.0;
  return wall_offset_ +
         std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
}

void Optimizer::save_state(std::ostream& os) const {
  if (!started_ || finished_) {
    throw std::logic_error(
        "Optimizer::save_state: only a live (started, unfinished) session can be serialized; "
        "a fresh session is captured by its spec, a terminal one by its result");
  }
  os << "optimizer-state v2 " << algorithm_name() << '\n';
  write_glova_result(os, result_);
  do_save_state(os);
  os << "optimizer-state-end\n";
  if (!os) state::bad("optimizer state write failed");
}

void Optimizer::load_state(std::istream& is) {
  if (started_ || finished_) {
    throw std::logic_error("Optimizer::load_state: requires a fresh session (no step() yet)");
  }
  std::istringstream header(state::expect_line(is, "optimizer-state"));
  std::string version;
  std::string name;
  header >> version >> name;
  if (version != "v2") {
    state::bad("unsupported optimizer-state version '" + version + "' (this build reads v2)");
  }
  if (name != algorithm_name()) {
    state::bad("optimizer-state algorithm mismatch: state is for '" + name +
               "', this session runs " + algorithm_name());
  }
  result_ = read_glova_result(is);
  do_load_state(is);
  state::expect_line(is, "optimizer-state-end");
  // The session is live from here: the saved wall time carries into
  // elapsed_seconds() so wall-clock budgets span process restarts.
  wall_offset_ = result_.wall_seconds;
  t0_ = std::chrono::steady_clock::now();
  started_ = true;
}

bool Optimizer::step() {
  if (finished_) return false;
  if (cancel_requested_) {  // cancelled between steps, before this call
    result_.termination = cancel_reason_;
    finish();
    return false;
  }
  // RAII so an exception escaping do_start()/do_step() (e.g. a failing
  // testbench evaluation) still clears the flag: a subsequent cancel() can
  // then finalize the session instead of deferring forever.
  struct StepScope {
    bool& flag;
    explicit StepScope(bool& f) : flag(f) { flag = true; }
    ~StepScope() { flag = false; }
  } scope(in_step_);
  if (!started_) {
    t0_ = std::chrono::steady_clock::now();
    do_start();
    // Marked only after do_start() succeeds: if initialization throws, a
    // retrying step() must run it again from scratch (do_start builds a
    // fresh Session) instead of stepping a half-built one.
    started_ = true;
    for (const auto& obs : observers_) obs->on_start(*this);
  }
  const bool more = do_step();
  if (!observers_.empty() && !result_.trace.empty()) {
    const EvaluationEngine* eng = engine_ptr();
    const EngineStats stats = eng ? eng->stats() : EngineStats{};
    for (const auto& obs : observers_) obs->on_iteration(*this, result_.trace.back(), stats);
  }
  if (more && !cancel_requested_) {
    const EvaluationEngine* eng = engine_ptr();
    const std::uint64_t sims = eng ? eng->simulation_count() : 0;
    if (const char* reason =
            budget_.exceeded_by(sims, result_.rl_iterations, elapsed_seconds())) {
      cancel(reason);
    }
  }
  if (!more) {
    finish();  // natural termination: the algorithm set its own reason
  } else if (cancel_requested_) {
    result_.termination = cancel_reason_;
    finish();
  }
  return true;
}

void Optimizer::cancel(std::string reason) {
  if (finished_) return;
  cancel_requested_ = true;
  cancel_reason_ = reason.empty() ? "cancelled" : std::move(reason);
  if (!in_step_) {
    result_.termination = cancel_reason_;
    finish();
  }
}

void Optimizer::finish() {
  if (finished_) return;
  finished_ = true;
  if (const EvaluationEngine* eng = engine_ptr()) {
    const EngineStats stats = eng->stats();
    result_.engine_stats = stats;
    result_.n_simulations = stats.requested;
    result_.n_simulations_executed = stats.executed;
    result_.n_cache_hits = stats.cache_hits;
  }
  result_.wall_seconds = elapsed_seconds();
  result_.modeled_runtime =
      static_cast<double>(result_.n_simulations) * cost().per_simulation +
      static_cast<double>(result_.rl_iterations) * cost().per_rl_iteration;
  do_finalize(result_);
  for (const auto& obs : observers_) obs->on_finish(*this, result_);
}

const GlovaResult& Optimizer::result() const {
  if (!finished_) {
    throw std::logic_error(
        "Optimizer::result(): session still running; drive step() until done() or cancel()");
  }
  return result_;
}

GlovaResult Optimizer::run() {
  while (!finished_) step();
  return result_;
}

void Optimizer::add_observer(std::shared_ptr<RunObserver> observer) {
  if (observer) observers_.push_back(std::move(observer));
}

// ---------------------------------------------------------------------------

ProgressLogObserver::ProgressLogObserver(std::size_t every)
    : every_(every == 0 ? 1 : every) {}

void ProgressLogObserver::on_start(Optimizer& session) {
  log_info(session.algorithm_name(), ": session started");
}

void ProgressLogObserver::on_iteration(Optimizer& session, const IterationTrace& trace,
                                       const EngineStats& stats) {
  if (trace.iteration % every_ != 0) return;
  log_info(session.algorithm_name(), ": iter ", trace.iteration, " reward_worst ",
           trace.reward_worst, " sims ", stats.requested, " (", stats.cache_hits,
           " cache hits)");
}

void ProgressLogObserver::on_finish(Optimizer& session, const GlovaResult& result) {
  log_info(session.algorithm_name(), ": finished (", result.termination, ") after ",
           result.rl_iterations, " iterations, ", result.n_simulations, " simulations");
}

void BudgetObserver::on_iteration(Optimizer& session, const IterationTrace& trace,
                                  const EngineStats& stats) {
  (void)trace;
  if (const char* reason = budget_.exceeded_by(stats.requested, session.iterations_completed(),
                                               session.elapsed_seconds())) {
    session.cancel(reason);
  }
}

EarlyStopObserver::EarlyStopObserver(std::size_t patience, double min_improvement)
    : patience_(patience == 0 ? 1 : patience), min_improvement_(min_improvement) {}

void EarlyStopObserver::on_iteration(Optimizer& session, const IterationTrace& trace,
                                     const EngineStats& stats) {
  (void)stats;
  if (!has_best_ || trace.reward_worst > best_ + min_improvement_) {
    has_best_ = true;
    best_ = trace.reward_worst;
    stalled_ = 0;
    return;
  }
  if (++stalled_ >= patience_) session.cancel("early-stop");
}

}  // namespace glova::core
