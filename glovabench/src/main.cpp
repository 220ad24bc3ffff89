// glovabench_workload: runs one benchmark workload in this process and prints
// its report as the last line of standard output (one JSON object).
//
//   glovabench_workload --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                       --workdir <dir> [--setup-only]
//
// Each workload runs in its own process: the simulator's numerics defaults
// and DC warm-start cache are process-wide, so nothing carries over from one
// workload to the next.  With --setup-only the program sets the workload up,
// prints "ready <steady-clock ns>" and exits; the launcher times set-up from
// the spawn to that line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "common/log.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: glovabench_workload --workload <table2-behavioral|spice-signoff|"
               "serve-jobs> --seed <n> --seconds <s> --trace <0|1> --workdir <dir> "
               "[--setup-only]\n");
}

}  // namespace

int main(int argc, char** argv) {
  glovabench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--workdir") {
      options.workdir = value();
    } else if (arg == "--setup-only") {
      options.setup_only = true;
    } else {
      usage();
      return 2;
    }
  }
  if (options.workdir.empty()) {
    usage();
    return 2;
  }
  glova::set_log_level(glova::LogLevel::Warn);

  glovabench::Report report;
  try {
    if (options.workload == "table2-behavioral") {
      glovabench::run_table2_behavioral(options, report);
    } else if (options.workload == "spice-signoff") {
      glovabench::run_spice_signoff(options, report);
    } else if (options.workload == "serve-jobs") {
      glovabench::run_serve_jobs(options, report);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s failed: %s\n", options.workload.c_str(), e.what());
    return 1;
  }
  if (options.setup_only) return 0;
  std::printf("%s\n", report.to_json(options).c_str());
  return 0;
}
