// spice-signoff: Monte Carlo sign-off of seed-drawn designs on the SPICE
// backend, through core::EvaluationEngine.
//
// One round signs off one design per testcase (SAL, FIA, OCSA+SH): for every
// C-MC_L corner, the method's verification draws come from
// pdk::sample_mismatch_set(..., verification_sampling_mode()) and go in as
// one evaluate_batch() — the operation timed here.  No RL runs, so the
// circuits/SPICE layers and the engine's fan-out do all the work, and the
// workload follows whatever the default numerics (MOS model, batching) are.
//
// The one departure from the default EngineConfig is dc_warm_start = false.
// With the DC warm-start cache on, a draw's metrics depend on which operating
// point the evaluating worker thread had cached: at SAL cold low-voltage
// corners the set_delay metric moves by up to ~300x against a cold
// evaluation, so those outputs cannot be checked.  The engine's timed outputs
// are instead checked bit for bit against direct Testbench::evaluate calls,
// and the traced run measures how far the default configuration strays
// (spice.warm_divergent_share).
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench.hpp"
#include "circuits/registry.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/config.hpp"

namespace glovabench {

namespace {

using glova::circuits::Backend;
using glova::circuits::Testcase;

constexpr double kTailPercentile = 90.0;
/// Draws per checked batch compared against direct Testbench::evaluate calls.
constexpr std::size_t kCheckedDraws = 4;
/// Relative distance beyond which a warm-started metric counts as divergent
/// from the cold evaluation.  The warm-start cache documents agreement to
/// within the Newton voltage tolerance, far inside this.
constexpr double kWarmTolerance = 1e-6;

struct Bench {
  Testcase testcase;
  glova::circuits::TestbenchPtr bare;
  std::unique_ptr<glova::core::EvaluationEngine> engine;
};

/// One batch kept for the output checks.
struct Sample {
  std::size_t bench = 0;
  std::vector<double> x;
  glova::pdk::PvtCorner corner;
  std::vector<std::vector<double>> hs;
  std::vector<std::size_t> draws;              ///< indices compared directly
  std::vector<std::vector<double>> engine_out; ///< the engine's metrics for those draws
};

std::vector<double> draw_design(const glova::circuits::Testbench& tb, glova::Rng rng) {
  std::vector<double> x01(tb.sizing().dimension());
  for (double& v : x01) v = rng.uniform();
  return tb.sizing().denormalize(x01);
}

/// Testbench::evaluate with the engine's failure semantics (no retries, no
/// degradation): a draw that does not converge resolves to the backend's
/// penalty metrics.
std::vector<double> evaluate_direct(const glova::circuits::Testbench& tb,
                                    std::span<const double> x,
                                    const glova::pdk::PvtCorner& corner,
                                    std::span<const double> h, std::size_t& failures) {
  try {
    return tb.evaluate(x, corner, h);
  } catch (const glova::circuits::EvaluationError& e) {
    ++failures;
    return e.penalty_metrics();
  }
}

bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool near_equal(const std::vector<double>& a, const std::vector<double>& b, double rel) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::fabs(a[i] - b[i]) > rel * std::max(std::fabs(a[i]), std::fabs(b[i]))) return false;
  }
  return true;
}

}  // namespace

void run_spice_signoff(const Options& options, Report& report) {
  const auto op_config =
      glova::core::OperationalConfig::for_method(glova::core::VerifMethod::C_MCL);

  Tracer tracer(options.trace);
  ActiveSpan active;
  CircuitsCounters counters;

  // Set-up: SPICE testbenches from the registry, the thread pool, one engine
  // per testcase, and a warm-up (below).
  glova::core::EngineConfig engine_config;
  engine_config.dc_warm_start = false;
  std::vector<Bench> benches;
  for (const Testcase tc : glova::circuits::all_testcases()) {
    Bench b{tc, glova::circuits::make_testbench(tc, Backend::Spice), nullptr};
    glova::circuits::TestbenchPtr routed = b.bare;
    if (options.trace) {
      routed = std::make_shared<const TracedTestbench>(b.bare, tracer, active, counters);
    }
    b.engine = std::make_unique<glova::core::EvaluationEngine>(routed, engine_config);
    benches.push_back(std::move(b));
  }
  (void)glova::global_thread_pool().size();
  glova::Rng root = glova::Rng(options.seed).split(0x516E0FF);

  // Warm-up, untimed: one batch per testcase, so first-use costs (per-thread
  // simulator workspaces, page faults) stay out of the first round.
  for (std::size_t i = 0; i < benches.size(); ++i) {
    Bench& b = benches[i];
    glova::Rng rng = glova::Rng(kWarmUpSeed).split(i);
    const std::vector<double> x = draw_design(*b.bare, rng);
    const auto layout = b.bare->mismatch_layout(x, op_config.global_mismatch);
    const auto hs = glova::pdk::sample_mismatch_set(layout, op_config.n_verif, rng,
                                                    op_config.verification_sampling_mode());
    (void)b.engine->evaluate_batch(x, op_config.corners.front(), hs);
    b.engine->reset_count();
  }
  announce_ready();
  if (options.setup_only) return;

  tracer.clear();
  counters.evals = 0;
  counters.draw_groups = 0;
  counters.draw_lanes = 0;
  counters.failures = 0;

  std::vector<double> round_walls;
  std::vector<double> latencies;
  std::vector<Sample> samples;
  std::uint64_t requested = 0;
  std::size_t malformed = 0;
  std::uint64_t op = 0;
  const glova::spice::SpiceCounters spice_before = glova::spice::spice_counters();

  const std::int64_t start = now_ns();
  for (std::uint64_t round = 0;; ++round) {
    const std::int64_t round_start = now_ns();
    for (std::size_t i = 0; i < benches.size(); ++i) {
      Bench& b = benches[i];
      glova::Rng rng = root.split(round * benches.size() + i);
      const std::vector<double> x = draw_design(*b.bare, rng);
      const auto layout = b.bare->mismatch_layout(x, op_config.global_mismatch);
      const std::size_t checked_corner = rng.index(op_config.corners.size());
      const std::size_t n_metrics = b.bare->performance().count();
      for (std::size_t c = 0; c < op_config.corners.size(); ++c) {
        const glova::pdk::PvtCorner& corner = op_config.corners[c];
        auto hs = glova::pdk::sample_mismatch_set(layout, op_config.n_verif, rng,
                                                  op_config.verification_sampling_mode());
        ++op;
        const std::int64_t t0 = now_ns();
        std::vector<std::vector<double>> out;
        {
          ScopedSpan span(tracer, "engine.evaluate_batch", 0, op);
          active.id.store(span.id());
          active.op.store(op);
          out = b.engine->evaluate_batch(x, corner, hs);
        }
        latencies.push_back(seconds_between(t0, now_ns()));
        ++report.attempted;
        requested += hs.size();
        bool ok = out.size() == hs.size();
        for (const auto& m : out) {
          ok = ok && m.size() == n_metrics;
          for (const double v : m) ok = ok && std::isfinite(v);
        }
        if (!ok) ++malformed;
        if (c == checked_corner) {
          Sample s{i, x, corner, hs, rng.sample_without_replacement(hs.size(), kCheckedDraws), {}};
          for (const std::size_t d : s.draws) s.engine_out.push_back(out[d]);
          samples.push_back(std::move(s));
        }
      }
    }
    round_walls.push_back(seconds_between(round_start, now_ns()));
    if (run_complete(start, options.seconds, latencies.size(), kTailPercentile)) break;
  }
  const double timed = seconds_between(start, now_ns());
  const glova::spice::SpiceCounters spice_after = glova::spice::spice_counters();
  active.id.store(0);
  report_end_to_end(report, round_walls, latencies, kTailPercentile, requested, timed,
                    peak_rss_mb());
  report.check("sign-off results well-formed (sizes, finite metrics)", malformed == 0,
               std::to_string(malformed) + " malformed batches");

  // The checked draws of the timed batches against direct
  // Testbench::evaluate calls, which must return exactly the engine's values.
  std::vector<std::vector<std::vector<double>>> direct(samples.size());
  {
    std::string mismatch;
    std::size_t compared = 0;
    std::size_t unconverged = 0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const Sample& s = samples[i];
      for (std::size_t k = 0; k < s.draws.size(); ++k) {
        direct[i].push_back(
            evaluate_direct(*benches[s.bench].bare, s.x, s.corner, s.hs[s.draws[k]], unconverged));
        if (!bit_equal(direct[i].back(), s.engine_out[k])) {
          mismatch += std::string(glova::circuits::to_string(benches[s.bench].testcase)) + ' ' +
                      s.corner.name() + " draw " + std::to_string(s.draws[k]) + "; ";
        }
        ++compared;
      }
    }
    report.check("engine metrics bit-identical to direct evaluate", mismatch.empty(), mismatch);
    report.info("checked_draws", static_cast<double>(compared));
    report.info("checked_draws_unconverged", static_cast<double>(unconverged));
  }

  if (!options.trace) return;

  const std::vector<Span> spans = tracer.collect();
  std::vector<double> batch_s;
  for (const Span& s : spans) {
    if (std::string_view(s.name) == "engine.evaluate_batch") {
      batch_s.push_back(seconds_between(s.start_ns, s.end_ns));
    }
  }
  glova::core::EngineStats total;
  for (const Bench& b : benches) accumulate(total, b.engine->stats());
  report_engine_stats(report, total);
  report_latency(report, "engine.batch_ms", "", batch_s, 1e3, kTailPercentile);
  report.metric("engine.self_s", self_seconds(spans, "engine.evaluate_batch"));
  report_circuits(report, spans, counters);
  report_spice(report, spice_before, spice_after);
  report.metric("trace.spans", static_cast<double>(spans.size()));
  write_spans(options.workdir + "/spans-spice-signoff.tsv", spans);

  // The default EngineConfig (DC warm start on) on the same checked batches,
  // last, because the warm-start switch and the counters behind EngineStats
  // are process-wide.
  {
    std::size_t divergent = 0;
    std::size_t compared = 0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const Sample& s = samples[i];
      glova::core::EvaluationEngine warm(benches[s.bench].bare);
      const auto out = warm.evaluate_batch(s.x, s.corner, s.hs);
      for (std::size_t k = 0; k < s.draws.size(); ++k, ++compared) {
        if (!near_equal(direct[i][k], out[s.draws[k]], kWarmTolerance)) ++divergent;
      }
    }
    report.metric("spice.warm_divergent_share",
                  compared ? static_cast<double>(divergent) / static_cast<double>(compared) : 0.0);
  }
}

}  // namespace glovabench
