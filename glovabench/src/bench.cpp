#include "bench.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "common/rng.hpp"

namespace glovabench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void append_pairs(std::ostringstream& os, const std::vector<std::pair<std::string, double>>& kv) {
  os << '{';
  for (std::size_t i = 0; i < kv.size(); ++i) {
    if (i) os << ", ";
    os << json_string(kv[i].first) << ": " << json_number(kv[i].second);
  }
  os << '}';
}

}  // namespace

void Report::check(std::string name, bool ok, std::string detail) {
  checks_.push_back({std::move(name), ok, std::move(detail)});
}

void Report::outcome(std::string key, bool success, std::uint64_t iterations,
                     std::uint64_t sims) {
  outcomes_.push_back({std::move(key), success, iterations, sims});
}

bool Report::all_checks_ok() const {
  for (const Check& c : checks_) {
    if (!c.ok) return false;
  }
  return true;
}

std::string Report::to_json(const Options& options) const {
  std::ostringstream os;
  os << "{\"workload\": " << json_string(options.workload) << ", \"seed\": " << options.seed
     << ", \"trace\": " << (options.trace ? 1 : 0) << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"correct\": " << (all_checks_ok() ? "true" : "false")
     << ", \"metrics\": ";
  append_pairs(os, metrics_);
  os << ", \"info\": ";
  append_pairs(os, info_);
  os << ", \"checks\": [";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    if (i) os << ", ";
    os << "{\"name\": " << json_string(checks_[i].name)
       << ", \"ok\": " << (checks_[i].ok ? "true" : "false")
       << ", \"detail\": " << json_string(checks_[i].detail) << '}';
  }
  os << "], \"outcomes\": [";
  for (std::size_t i = 0; i < outcomes_.size(); ++i) {
    const Outcome& o = outcomes_[i];
    if (i) os << ", ";
    os << '[' << json_string(o.key) << ", " << (o.success ? 1 : 0) << ", " << o.iterations
       << ", " << o.sims << ']';
  }
  os << "]}";
  return os.str();
}

void report_latency(Report& report, const std::string& prefix, const std::string& suffix,
                    const std::vector<double>& values, double scale, double tail_p) {
  std::vector<double> scaled;
  scaled.reserve(values.size());
  for (const double v : values) scaled.push_back(v * scale);
  const double n = static_cast<double>(scaled.size());
  const double p = n * (1.0 - tail_p / 100.0) >= 10.0 ? tail_p : tail_percentile(scaled.size());
  report.metric(prefix + "_p50" + suffix, percentile(scaled, 50.0));
  report.metric(prefix + "_tail" + suffix, percentile(scaled, p));
  report.info(prefix + "_tail_percentile", p);
  report.info(prefix + "_samples", n);
}

void report_end_to_end(Report& report, const std::vector<double>& round_walls,
                       const std::vector<double>& op_latencies, double tail_p,
                       std::uint64_t requested_sims, double timed_seconds, double rss_mb) {
  report.metric("wall_s", percentile(round_walls, 50.0));
  report_latency(report, "latency", "_s", op_latencies, 1.0, tail_p);
  report.metric("engine.requested_per_s", static_cast<double>(requested_sims) / timed_seconds);
  report.metric("peak_rss_mb", rss_mb);
  report.info("rounds", static_cast<double>(round_walls.size()));
  report.info("timed_s", timed_seconds);
  report.info("requested_sims", static_cast<double>(requested_sims));
}

double self_seconds(const std::vector<Span>& spans, const char* parent_name) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  double total = 0.0;
  for (const Span& s : spans) {
    if (std::string_view(s.name) != parent_name) continue;
    double covered = 0.0;
    if (const auto it = children.find(s.id); it != children.end()) {
      auto clipped = it->second;
      for (auto& [a, b] : clipped) {
        a = std::max(a, s.start_ns);
        b = std::max(a, std::min(b, s.end_ns));
      }
      covered = union_seconds(std::move(clipped));
    }
    total += seconds_between(s.start_ns, s.end_ns) - covered;
  }
  return total;
}

void report_circuits(Report& report, const std::vector<Span>& spans,
                     const CircuitsCounters& counters) {
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  std::vector<double> eval_s;
  double busy = 0.0;
  for (const Span& s : spans) {
    const std::string_view name(s.name);
    if (name.rfind("circuits.", 0) != 0) continue;
    intervals.emplace_back(s.start_ns, s.end_ns);
    busy += seconds_between(s.start_ns, s.end_ns);
    if (name == "circuits.evaluate") eval_s.push_back(seconds_between(s.start_ns, s.end_ns));
  }
  const double covered = union_seconds(std::move(intervals));
  report.metric("circuits.evals", static_cast<double>(counters.evals.load()));
  report.metric("circuits.draw_groups", static_cast<double>(counters.draw_groups.load()));
  report.metric("circuits.draw_lanes", static_cast<double>(counters.draw_lanes.load()));
  report.metric("circuits.busy_s", busy);
  report.metric("circuits.covered_s", covered);
  report.metric("circuits.parallelism", covered > 0.0 ? busy / covered : 0.0);
  report_latency(report, "circuits.eval_us", "", eval_s, 1e6, 99.0);
  report.metric("circuits.failures", static_cast<double>(counters.failures.load()));
}

void report_engine_stats(Report& report, const glova::core::EngineStats& st) {
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  report.metric("engine.requested", static_cast<double>(st.requested));
  report.metric("engine.executed", static_cast<double>(st.executed));
  report.metric("engine.cache_hit_ratio",
                ratio(static_cast<double>(st.cache_hits), static_cast<double>(st.requested)));
  report.metric("engine.dc_warm_hit_ratio",
                ratio(static_cast<double>(st.dc_warm_hits),
                      static_cast<double>(st.dc_warm_hits + st.dc_warm_misses)));
  report.metric("engine.retries", static_cast<double>(st.retries));
  report.metric("engine.degraded_evals", static_cast<double>(st.degraded_evals));
  report.metric("engine.surrogate_prunes", static_cast<double>(st.surrogate_prunes));
}

void report_spice(Report& report, const glova::spice::SpiceCounters& before,
                  const glova::spice::SpiceCounters& after) {
  const auto delta = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(b - a); };
  report.metric("spice.steps_accepted", delta(before.steps_accepted, after.steps_accepted));
  report.metric("spice.steps_rejected", delta(before.steps_rejected, after.steps_rejected));
  report.metric("spice.batch_lanes", delta(before.batch_lanes, after.batch_lanes));
  report.metric("spice.recovered_dc", delta(before.recovered_dc, after.recovered_dc));
  report.metric("spice.recovered_transient",
                delta(before.recovered_transient, after.recovered_transient));
  report.metric("spice.deadline_aborts", delta(before.deadline_aborts, after.deadline_aborts));
}

void accumulate(glova::core::EngineStats& into, const glova::core::EngineStats& add) {
  into.requested += add.requested;
  into.executed += add.executed;
  into.cache_hits += add.cache_hits;
  into.dc_warm_hits += add.dc_warm_hits;
  into.dc_warm_misses += add.dc_warm_misses;
  into.dc_warm_stores += add.dc_warm_stores;
  into.batch_groups += add.batch_groups;
  into.batch_lanes += add.batch_lanes;
  into.bypass_solves += add.bypass_solves;
  into.bypass_refactors += add.bypass_refactors;
  into.steps_accepted += add.steps_accepted;
  into.steps_rejected += add.steps_rejected;
  into.recovered_dc += add.recovered_dc;
  into.recovered_transient += add.recovered_transient;
  into.deadline_aborts += add.deadline_aborts;
  into.retries += add.retries;
  into.degraded_evals += add.degraded_evals;
  into.surrogate_prunes += add.surrogate_prunes;
  into.surrogate_confirms += add.surrogate_confirms;
  into.surrogate_train_steps += add.surrogate_train_steps;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  out << "name\tstart_ns\tend_ns\tid\tparent\top\n";
  for (const Span& s : spans) {
    out << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.id << '\t' << s.parent
        << '\t' << s.op << '\n';
  }
}

double peak_rss_mb() {
  // VmHWM rather than getrusage's ru_maxrss: Linux carries ru_maxrss across
  // exec, so it would report the launcher's footprint when that is larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t session_seed(std::uint64_t seed, std::uint64_t round, std::uint64_t index) {
  glova::Rng rng = glova::Rng(seed).split(round).split(index);
  return 1 + rng.index(1'000'000'000);
}

void announce_ready() {
  std::printf("ready %lld\n", static_cast<long long>(now_ns()));
  std::fflush(stdout);
}

}  // namespace glovabench
