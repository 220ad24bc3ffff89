#include "bench_common.hpp"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "common/log.hpp"
#include "core/campaign.hpp"

namespace glova::bench {

const char* to_string(Method m) {
  switch (m) {
    case Method::Glova: return "Ours";
    case Method::PvtSizing: return "PVTSizing";
    case Method::RobustAnalog: return "RobustAnalog";
  }
  return "?";
}

BenchOptions options_from_env() {
  BenchOptions opt;
  if (const char* s = std::getenv("GLOVA_BENCH_SEEDS")) opt.seeds = std::strtoul(s, nullptr, 10);
  if (const char* s = std::getenv("GLOVA_BENCH_MAXIT")) {
    opt.max_iterations = std::strtoul(s, nullptr, 10);
  }
  if (const char* s = std::getenv("GLOVA_BENCH_BACKEND")) {
    const auto backend = circuits::backend_from_string(s);
    if (!backend) {
      fprintf(stderr, "GLOVA_BENCH_BACKEND: unknown backend '%s' (behavioral, spice)\n", s);
      exit(2);
    }
    opt.backend = *backend;
  }
  if (const char* s = std::getenv("GLOVA_BENCH_MOS_MODEL")) {
    if (std::string_view(s) != "level1" && std::string_view(s) != "ekv") {
      fprintf(stderr, "GLOVA_BENCH_MOS_MODEL: unknown model '%s' (level1, ekv)\n", s);
      exit(2);
    }
    opt.mos_model = s;
  }
  if (const char* s = std::getenv("GLOVA_BENCH_SPICE_NOISE")) {
    opt.spice_noise = s[0] != '\0' && s[0] != '0';
  }
  if (const char* s = std::getenv("GLOVA_BENCH_CORNERS")) {
    if (std::string_view(s) != "all" && std::string_view(s) != "cold_lv") {
      fprintf(stderr, "GLOVA_BENCH_CORNERS: unknown corner_filter '%s' (all, cold_lv)\n", s);
      exit(2);
    }
    opt.corner_filter = s;
  }
  if (opt.seeds == 0) opt.seeds = 1;
  return opt;
}

CellStats run_cell(Method method, circuits::Testcase testcase, core::VerifMethod verif,
                   const BenchOptions& options) {
  set_log_level(LogLevel::Warn);

  // One cell = one campaign: the sweep expands the seeds, core::Campaign
  // schedules the sessions over the shared evaluation stack (sharing one
  // testbench per (testcase, backend), exactly as this harness did by hand
  // before) and aggregates per-spec results into one table.
  core::SweepSpec sweep;
  sweep.base.testcase = testcase;
  sweep.base.backend = options.backend;
  sweep.base.algorithm = method;
  sweep.base.method = verif;
  sweep.base.max_iterations = options.max_iterations;
  sweep.base.use_ensemble_critic = options.use_ensemble_critic;
  sweep.base.use_mu_sigma = options.use_mu_sigma;
  sweep.base.use_reordering = options.use_reordering;
  sweep.base.engine.mos_model = options.mos_model;
  sweep.base.engine.spice_noise = options.spice_noise;
  sweep.base.corner_filter = options.corner_filter;
  sweep.seeds.reserve(options.seeds);
  for (std::uint64_t seed = 1; seed <= options.seeds; ++seed) sweep.seeds.push_back(seed);

  // Run the seeds back-to-back (one session finishes before the next
  // starts): interleaving buys nothing on a single cell, and sequential
  // scheduling keeps each run's wall_seconds measuring only itself, exactly
  // as the old hand-rolled loop did.
  core::CampaignConfig config;
  config.steps_per_turn = std::numeric_limits<std::size_t>::max();
  core::Campaign campaign(sweep, config);
  const core::CampaignResult& table = campaign.run();
  for (const core::CampaignEntry& entry : table.entries) {
    // An infrastructure crash must fail the bench loudly (as the old loop's
    // escaping exception did), not masquerade as a lower success rate.
    if (entry.state == core::SessionState::Failed) {
      throw std::runtime_error("run_cell: session '" + entry.spec.to_string() +
                               "' failed: " + entry.error);
    }
  }

  std::size_t successes = 0;
  for (const core::CampaignEntry& entry : table.entries) {
    if (entry.state == core::SessionState::Finished && entry.result.success) ++successes;
  }
  // Paper footnote: cells with < 100 % success average successful runs.  A
  // cell with no success averages every run instead, so it reports what the
  // failed runs cost rather than zeros.
  CellStats stats;
  stats.runs = options.seeds;
  std::size_t averaged = 0;
  for (const core::CampaignEntry& entry : table.entries) {
    if (entry.state != core::SessionState::Finished) continue;
    if (successes > 0 && !entry.result.success) continue;
    ++averaged;
    stats.mean_iterations += static_cast<double>(entry.result.rl_iterations);
    stats.mean_simulations += static_cast<double>(entry.result.n_simulations);
    stats.mean_modeled_runtime += entry.result.modeled_runtime;
    stats.mean_wall_seconds += entry.result.wall_seconds;
  }
  if (averaged > 0) {
    const double n = static_cast<double>(averaged);
    stats.mean_iterations /= n;
    stats.mean_simulations /= n;
    stats.mean_modeled_runtime /= n;
    stats.mean_wall_seconds /= n;
  }
  stats.success_rate = static_cast<double>(successes) / static_cast<double>(options.seeds);
  return stats;
}

void print_table2_block(circuits::Testcase testcase,
                        const std::vector<std::vector<PaperCell>>& paper,
                        const BenchOptions& options) {
  const auto verifs = core::all_verif_methods();
  const Method methods[] = {Method::Glova, Method::PvtSizing, Method::RobustAnalog};

  printf("Table II block — %s on the %s backend (%zu seeds, iteration cap %zu)\n",
         circuits::to_string(testcase), circuits::to_string(options.backend), options.seeds,
         options.max_iterations);
  printf("%-14s | %-24s | %-24s | %-24s\n", "", "C", "C-MC_L", "C-MC_G-L");
  printf("%-14s | %-11s %-12s | %-11s %-12s | %-11s %-12s\n", "method", "paper", "ours", "paper",
         "ours", "paper", "ours");

  // Gather all cells first so runtime normalization (Ours = 1.00) works.
  std::vector<std::vector<CellStats>> cells(3, std::vector<CellStats>(verifs.size()));
  for (std::size_t mi = 0; mi < 3; ++mi) {
    for (std::size_t vi = 0; vi < verifs.size(); ++vi) {
      cells[mi][vi] = run_cell(methods[mi], testcase, verifs[vi], options);
    }
  }

  const auto row = [&](const char* label, auto paper_of, auto ours_of) {
    printf("%s\n", label);
    for (std::size_t mi = 0; mi < 3; ++mi) {
      printf("  %-12s |", bench::to_string(methods[mi]));
      for (std::size_t vi = 0; vi < verifs.size(); ++vi) {
        printf(" %-11.6g %-12.6g |", paper_of(mi, vi), ours_of(mi, vi));
      }
      printf("\n");
    }
  };

  row(
      "RL Iteration", [&](std::size_t mi, std::size_t vi) { return paper[mi][vi].iterations; },
      [&](std::size_t mi, std::size_t vi) { return cells[mi][vi].mean_iterations; });
  row(
      "# Simulation", [&](std::size_t mi, std::size_t vi) { return paper[mi][vi].simulations; },
      [&](std::size_t mi, std::size_t vi) { return cells[mi][vi].mean_simulations; });
  row(
      "Norm. Runtime",
      [&](std::size_t mi, std::size_t vi) { return paper[mi][vi].norm_runtime; },
      [&](std::size_t mi, std::size_t vi) {
        const double base = cells[0][vi].mean_modeled_runtime;
        return base > 0.0 ? cells[mi][vi].mean_modeled_runtime / base : 0.0;
      });
  row(
      "Success Rate", [&](std::size_t mi, std::size_t vi) { return paper[mi][vi].success; },
      [&](std::size_t mi, std::size_t vi) { return cells[mi][vi].success_rate; });
  printf("\n");
}

}  // namespace glova::bench
