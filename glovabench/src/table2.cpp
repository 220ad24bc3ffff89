// table2-behavioral: Table II sessions on the behavioral backend.
//
// One round is every Table II cell once — GLOVA, PVTSizing and RobustAnalog
// x C / C-MC_L / C-MC_G-L x SAL / FIA / OCSA+SH — each a session with RunSpec
// defaults except the cell, a seed drawn from the workload seed, and the
// iteration cap below.  Sessions run one at a time (closed loop).  Here the
// RL/NN/optimizer code owns nearly all the time and the testbench almost none.
//
// The timed operation is one Table II column for one seed: the three
// algorithms' sessions on one (circuit, method), back to back.  A single
// baseline session lasts milliseconds and a GLOVA session a few hundred, so a
// per-session median would sit on the edge between the two populations and
// swing with the seed; a column always holds one of each.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "circuits/registry.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/run_spec.hpp"

namespace glovabench {

namespace {

using glova::circuits::Backend;
using glova::circuits::Testcase;
using glova::core::Algorithm;
using glova::core::VerifMethod;

/// RL-iteration cap per session.  A GLOVA session's cost is mostly its first
/// step (TuRBO sampling, initial dataset, agent warm-up); the cap keeps the
/// seed-dependent remainder small so a round's time reflects the code, not
/// how soon a seed happens to verify.
constexpr std::size_t kIterationCap = 10;
constexpr double kTailPercentile = 75.0;

struct Cell {
  Testcase testcase;
  Algorithm algorithm;
  VerifMethod method;
};

/// Cells in column order: circuit, method, then the three algorithms.
std::vector<Cell> table2_cells() {
  std::vector<Cell> cells;
  for (const Testcase tc : glova::circuits::all_testcases()) {
    for (const VerifMethod m : glova::core::all_verif_methods()) {
      for (const Algorithm alg : glova::core::all_algorithms()) cells.push_back({tc, alg, m});
    }
  }
  return cells;
}

glova::core::RunSpec cell_spec(const Cell& cell, std::uint64_t seed) {
  glova::core::RunSpec spec;
  spec.testcase = cell.testcase;
  spec.backend = Backend::Behavioral;
  spec.algorithm = cell.algorithm;
  spec.method = cell.method;
  spec.seed = seed;
  spec.max_iterations = kIterationCap;
  return spec;
}

std::string cell_key(const glova::core::RunSpec& spec) {
  return std::string(glova::circuits::to_string(spec.testcase)) + '/' +
         glova::core::to_string(spec.algorithm) + '/' + glova::core::to_string(spec.method) +
         "/seed=" + std::to_string(spec.seed);
}

struct SessionRun {
  glova::core::GlovaResult result;
  double latency_s = 0.0;
};

/// Drive one session to termination, one step() at a time, each step a span
/// whose id the decorator reads as its parent.
SessionRun run_session(const glova::core::RunSpec& spec, bool traced, Tracer& tracer,
                       ActiveSpan& active, CircuitsCounters& counters, std::uint64_t op) {
  const std::int64_t t0 = now_ns();
  std::unique_ptr<glova::core::Optimizer> opt;
  if (traced) {
    auto bench = std::make_shared<const TracedTestbench>(
        glova::circuits::make_testbench(spec.testcase, spec.backend), tracer, active, counters);
    opt = glova::core::make_optimizer(spec, bench);
  } else {
    opt = glova::core::make_optimizer(spec);
  }
  while (!opt->done()) {
    ScopedSpan step(tracer, "session.step", 0, op);
    active.id.store(step.id());
    active.op.store(op);
    opt->step();
  }
  active.id.store(0);
  SessionRun run{opt->result(), 0.0};
  run.latency_s = seconds_between(t0, now_ns());
  return run;
}

bool same_outcome(const glova::core::GlovaResult& a, const glova::core::GlovaResult& b) {
  return a.success == b.success && a.rl_iterations == b.rl_iterations &&
         a.n_simulations == b.n_simulations;
}

}  // namespace

void run_table2_behavioral(const Options& options, Report& report) {
  const std::vector<Cell> cells = table2_cells();

  Tracer tracer(options.trace);
  ActiveSpan active;
  CircuitsCounters counters;

  // Set-up: registry testbenches, the shared thread pool, one session object
  // per cell (construction only), and one untimed warm-up session so
  // first-use costs (allocator growth, page faults) stay out of the rounds.
  for (const Cell& cell : cells) (void)glova::core::make_optimizer(cell_spec(cell, 1));
  (void)glova::global_thread_pool().size();
  {
    Tracer off(false);
    glova::core::RunSpec warm = cell_spec(cells.front(), kWarmUpSeed);
    warm.method = VerifMethod::C_MCGL;
    (void)run_session(warm, options.trace, off, active, counters, 0);
    counters.evals = 0;
  }
  announce_ready();
  if (options.setup_only) return;

  const std::size_t per_column = glova::core::all_algorithms().size();
  std::vector<double> round_walls;
  std::vector<double> latencies;          // per session
  std::vector<double> column_latencies;   // per column: the timed operation
  std::vector<glova::core::RunSpec> specs;
  std::vector<glova::core::GlovaResult> results;
  glova::core::EngineStats engine_total;
  std::uint64_t requested = 0;
  bool sane = true;
  std::string insane;

  const std::int64_t start = now_ns();
  for (std::uint64_t round = 0;; ++round) {
    const std::int64_t round_start = now_ns();
    for (std::size_t k = 0; k < cells.size(); ++k) {
      if (k % per_column == 0) column_latencies.push_back(0.0);
      const glova::core::RunSpec spec = cell_spec(cells[k], session_seed(options.seed, round, k));
      const std::uint64_t op = specs.size() + 1;
      SessionRun run = run_session(spec, options.trace, tracer, active, counters, op);
      const glova::core::GlovaResult& r = run.result;
      ++report.attempted;
      latencies.push_back(run.latency_s);
      column_latencies.back() += run.latency_s;
      requested += r.n_simulations;
      accumulate(engine_total, r.engine_stats);
      report.outcome(cell_key(spec), r.success, r.rl_iterations, r.n_simulations);
      const bool ok = r.n_simulations == r.n_simulations_executed + r.n_cache_hits &&
                      r.success == (r.termination == "verified") &&
                      r.rl_iterations <= kIterationCap && !r.termination.empty();
      if (!ok && sane) {
        sane = false;
        insane = cell_key(spec) + " termination=" + r.termination;
      }
      specs.push_back(spec);
      results.push_back(std::move(run.result));
    }
    round_walls.push_back(seconds_between(round_start, now_ns()));
    if (run_complete(start, options.seconds, column_latencies.size(), kTailPercentile)) break;
  }
  const double timed = seconds_between(start, now_ns());
  report_end_to_end(report, round_walls, column_latencies, kTailPercentile, requested, timed,
                    peak_rss_mb());

  report.check("session results well-formed", sane, insane);

  // Replay one seed-chosen column of the first round (one session per
  // algorithm) through the other path — the decorator when untraced, the bare
  // registry testbench when traced: outcomes must not depend on tracing.
  {
    Tracer off(false);
    ActiveSpan idle;
    CircuitsCounters replay_counters;
    glova::Rng pick = glova::Rng(options.seed).split(0xC0FFEE);
    const std::size_t column = pick.index(cells.size() / per_column);
    std::string mismatch;
    for (std::size_t a = 0; a < per_column; ++a) {
      const std::size_t idx = column * per_column + a;
      const SessionRun replay =
          run_session(specs[idx], !options.trace, off, idle, replay_counters, 0);
      if (!same_outcome(replay.result, results[idx])) mismatch += cell_key(specs[idx]) + ' ';
    }
    report.check("traced and untraced sessions agree (sampled replay)", mismatch.empty(),
                 mismatch);
  }

  // Table II quality of the sessions run (a property of the seeds, not a
  // speed): success rate, and mean simulations / iterations per success.
  std::size_t verified = 0;
  double sims_v = 0.0;
  double iters_v = 0.0;
  for (const auto& r : results) {
    if (!r.success) continue;
    ++verified;
    sims_v += static_cast<double>(r.n_simulations);
    iters_v += static_cast<double>(r.rl_iterations);
  }
  const double n_verified = static_cast<double>(verified);
  report.metric("session.verify_rate", n_verified / static_cast<double>(results.size()));
  report.metric("session.sims_per_verified", verified ? sims_v / n_verified : 0.0);
  report.metric("session.iters_per_verified", verified ? iters_v / n_verified : 0.0);

  if (!options.trace) return;

  const std::vector<Span> spans = tracer.collect();
  std::vector<double> init_ms;
  std::vector<double> step_ms;
  double step_total = 0.0;
  std::uint64_t last_op = 0;
  std::size_t first_steps = 0;
  for (const Span& s : spans) {
    if (std::string_view(s.name) != "session.step") continue;
    const double d = seconds_between(s.start_ns, s.end_ns);
    step_total += d;
    // Spans are sorted by start, so the first step of each operation is its
    // initialization step.  Only GLOVA's counts towards init_ms (TuRBO
    // sampling, initial dataset, agent warm-up); a baseline's first step is
    // cheap, and with two baselines per GLOVA session the median would sit
    // on them.
    if (s.op != last_op) {
      if (specs[s.op - 1].algorithm == Algorithm::Glova) init_ms.push_back(d * 1e3);
      last_op = s.op;
      ++first_steps;
    } else {
      step_ms.push_back(d * 1e3);
    }
  }
  const double self = self_seconds(spans, "session.step");
  double session_wall = 0.0;
  for (const double l : latencies) session_wall += l;
  report.metric("session.steps", static_cast<double>(first_steps + step_ms.size()));
  report.metric("session.init_ms_p50", percentile(init_ms, 50.0));
  report.metric("session.step_ms_p50", percentile(step_ms, 50.0));
  report.metric("session.step_ms_tail", percentile(step_ms, tail_percentile(step_ms.size())));
  report.metric("session.self_s", self);
  report.metric("session.self_share", session_wall > 0.0 ? self / session_wall : 0.0);
  report.metric("session.wall_s", session_wall);
  report.info("session.step_total_s", step_total);
  report_circuits(report, spans, counters);
  report_engine_stats(report, engine_total);
  report.metric("trace.spans", static_cast<double>(spans.size()));
  write_spans(options.workdir + "/spans-table2-behavioral.tsv", spans);
}

}  // namespace glovabench
