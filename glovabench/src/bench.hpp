// Shared plumbing of the workload program: options, the report every
// workload fills, and the per-layer metric helpers computed from spans.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/evaluation_engine.hpp"
#include "spice/counters.hpp"
#include "trace.hpp"
#include "traced_testbench.hpp"

namespace glovabench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;   ///< measure whole rounds until this much wall time has passed
  bool trace = false;      ///< route calls through the tracing decorator
  bool setup_only = false; ///< set up, report the ready instant, and exit
  std::string workdir;     ///< working directory (serve spool, span dump)
};

/// Everything a workload reports: named numbers, output checks, and the
/// per-session outcome rows the launcher compares between traced and
/// untraced runs.  Serialized as one JSON object.
class Report {
 public:
  void metric(std::string name, double value) { metrics_.emplace_back(std::move(name), value); }
  void info(std::string name, double value) { info_.emplace_back(std::move(name), value); }
  void check(std::string name, bool ok, std::string detail = "");
  /// One operation's outcome, keyed so that traced and untraced runs of the
  /// same seed can be matched row by row.
  void outcome(std::string key, bool success, std::uint64_t iterations, std::uint64_t sims);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] bool all_checks_ok() const;
  [[nodiscard]] std::string to_json(const Options& options) const;

 private:
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  struct Outcome {
    std::string key;
    bool success;
    std::uint64_t iterations;
    std::uint64_t sims;
  };
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, double>> info_;
  std::vector<Check> checks_;
  std::vector<Outcome> outcomes_;
};

/// Latency summary in the report's convention: `<prefix>_p50<suffix>` and
/// `<prefix>_tail<suffix>`, the tail taken at `tail_p` (the workload's fixed
/// percentile) when at least ten samples lie beyond it, else at the highest
/// standard percentile that has ten.  The percentile used and the sample
/// count go to the info block.
void report_latency(Report& report, const std::string& prefix, const std::string& suffix,
                    const std::vector<double>& values, double scale, double tail_p);

/// True once a run has measured long enough: at least `seconds` of wall time
/// and enough operations that `tail_p` has ten samples beyond it, so the
/// reported tail percentile never changes from one run to the next.
[[nodiscard]] inline bool run_complete(std::int64_t start_ns, double seconds, std::size_t ops,
                                       double tail_p) {
  return seconds_between(start_ns, now_ns()) >= seconds &&
         static_cast<double>(ops) * (1.0 - tail_p / 100.0) >= 10.0;
}

/// Figures every workload reports: median round wall, operation latency and
/// peak resident memory (read by the caller at the end of the timed region),
/// plus requested simulations per second.
void report_end_to_end(Report& report, const std::vector<double>& round_walls,
                       const std::vector<double>& op_latencies, double tail_p,
                       std::uint64_t requested_sims, double timed_seconds, double rss_mb);

/// Self time of each span named `parent_name`: its duration minus the union
/// of its children's intervals (children found by parent id, clipped to the
/// parent), summed over every such span.
[[nodiscard]] double self_seconds(const std::vector<Span>& spans, const char* parent_name);

/// circuits.* metrics from the decorator's spans and counters.
void report_circuits(Report& report, const std::vector<Span>& spans,
                     const CircuitsCounters& counters);

/// engine.* counter metrics from a summed EngineStats.
void report_engine_stats(Report& report, const glova::core::EngineStats& stats);

/// spice.* metrics: simulator counter deltas over the timed region.
void report_spice(Report& report, const glova::spice::SpiceCounters& before,
                  const glova::spice::SpiceCounters& after);

/// Sum two EngineStats snapshots field by field.
void accumulate(glova::core::EngineStats& into, const glova::core::EngineStats& add);

/// Write spans as tab-separated lines (name, start_ns, end_ns, id, parent, op).
void write_spans(const std::string& path, const std::vector<Span>& spans);

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mb();

/// Seed of every warm-up input.  Set-up does the same work whatever the
/// workload seed, so set-up time measures the code, not the inputs.
inline constexpr std::uint64_t kWarmUpSeed = 1;

/// Session seed for slot `index` of round `round` under workload seed `seed`.
[[nodiscard]] std::uint64_t session_seed(std::uint64_t seed, std::uint64_t round,
                                         std::uint64_t index);

// Workload entry points: set up (the launcher times process start to the
// ready line), then, unless setup_only, run and fill the report.
void run_table2_behavioral(const Options& options, Report& report);
void run_spice_signoff(const Options& options, Report& report);
void run_serve_jobs(const Options& options, Report& report);

/// Print the ready line the launcher times set-up by.
void announce_ready();

}  // namespace glovabench
