// serve-jobs: behavioral GLOVA sweeps served by an in-process serve::Server
// (default ServerConfig, a fresh spool) over the loopback line protocol.
//
// One client thread per tenant runs a closed loop: SUBMIT a two-seed SAL
// C-MC_L sweep, WATCH it to its terminal "done" event on a second
// connection, fetch RESULT, then submit the next.  Two tenants hold at most
// four connections.  One round is every tenant's kJobsPerTenant jobs; the
// jobs share the server's two workers and the process thread pool and are
// checkpointed through the spool, so the scheduler, job store and protocol
// show here and nowhere else.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "circuits/registry.hpp"
#include "common/rng.hpp"
#include "core/campaign.hpp"
#include "core/optimizer_base.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace glovabench {

namespace {

constexpr std::size_t kTenants = 2;
constexpr std::size_t kJobsPerTenant = 4;
/// RL-iteration cap per session (the table2-behavioral cap, for the same
/// reason: seed-dependent session length would swamp the serving costs).
constexpr std::size_t kIterationCap = 10;
constexpr double kTailPercentile = 75.0;

/// One loopback connection speaking the line protocol.
class Connection {
 public:
  explicit Connection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect() to the server failed");
    }
    io_ = std::make_unique<glova::serve::LineIo>(fd_);
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void send(const std::string& line) {
    if (!io_->write_line(line)) throw std::runtime_error("connection closed while sending");
  }
  std::string receive() {
    std::string line;
    if (!io_->read_line(line)) throw std::runtime_error("connection closed while receiving");
    return line;
  }

 private:
  int fd_ = -1;
  std::unique_ptr<glova::serve::LineIo> io_;
};

/// A job: GLOVA on SAL under C-MC_L for two seeds.  Two capped sessions
/// take more than checkpoint_every_steps campaign steps, so every job also
/// writes a spool checkpoint.
glova::core::SweepSpec job_sweep(std::uint64_t seed_a, std::uint64_t seed_b) {
  glova::core::SweepSpec sweep;
  sweep.base.testcase = glova::circuits::Testcase::Sal;
  sweep.base.algorithm = glova::core::Algorithm::Glova;
  sweep.base.method = glova::core::VerifMethod::C_MCL;
  sweep.base.max_iterations = kIterationCap;
  sweep.seeds = {seed_a, seed_b};
  return sweep;
}

std::string strip_trailing_newlines(std::string text) {
  while (!text.empty() && text.back() == '\n') text.pop_back();
  return text;
}

struct JobRun {
  glova::core::SweepSpec sweep;
  std::string state;       ///< terminal state from the done event
  std::string result;      ///< RESULT payload
  bool error = false;      ///< rejected, ERR-answered or connection failure
  std::string error_text;
  double submit_s = 0.0;   ///< SUBMIT sent -> OK received
  double first_iteration_s = 0.0;  ///< OK received -> first iteration EVENT received
  double latency_s = 0.0;  ///< SUBMIT sent -> done EVENT received
  double result_s = 0.0;   ///< RESULT sent -> END received
  std::uint64_t events = 0;
};

void run_job(std::uint16_t port, Connection& commands, const std::string& tenant, JobRun& job,
             Tracer& tracer, std::uint64_t op) {
  ScopedSpan span(tracer, "serve.job", 0, op);
  const std::int64_t t0 = now_ns();
  commands.send("SUBMIT " + tenant + ' ' + job.sweep.to_string());
  const std::string reply = commands.receive();
  const std::int64_t t_ok = now_ns();
  job.submit_s = seconds_between(t0, t_ok);
  if (reply.rfind("OK ", 0) != 0) {
    job.error = true;
    job.error_text = reply;
    return;
  }
  const std::string id = reply.substr(3);

  {
    Connection watch(port);
    watch.send("WATCH " + id);
    const std::string ack = watch.receive();
    if (ack.rfind("OK ", 0) != 0) {
      job.error = true;
      job.error_text = ack;
      return;
    }
    // session-start can fire before WATCH registers, so the first progress
    // the client can always observe is the first iteration event (or done).
    const std::string iteration_prefix = "EVENT " + id + " iteration ";
    const std::string done_prefix = "EVENT " + id + " done ";
    bool progressed = false;
    for (;;) {
      const std::string line = watch.receive();
      if (line == glova::serve::kEndLine) break;
      ++job.events;
      const bool done = line.rfind(done_prefix, 0) == 0;
      if (!progressed && (done || line.rfind(iteration_prefix, 0) == 0)) {
        job.first_iteration_s = seconds_between(t_ok, now_ns());
        progressed = true;
      }
      if (done) {
        job.latency_s = seconds_between(t0, now_ns());
        job.state = line.substr(done_prefix.size());
      }
    }
  }

  const std::int64_t t_result = now_ns();
  commands.send("RESULT " + id);
  const std::string head = commands.receive();
  if (head.rfind("OK ", 0) != 0) {
    job.error = true;
    job.error_text = head;
    return;
  }
  std::string text;
  for (;;) {
    const std::string line = commands.receive();
    if (line == glova::serve::kEndLine) break;
    text += line;
    text += '\n';
  }
  job.result = strip_trailing_newlines(text);
  job.result_s = seconds_between(t_result, now_ns());
  if (job.state != "Done") {
    job.error = true;
    job.error_text = "terminal state " + job.state;
  }
}

/// A RESULT payload read back: the campaign's total simulations and each
/// entry's session result (format_campaign_result's layout: a
/// campaign-result header, then per entry its entry, spec and error lines
/// followed by the session result block).
struct ParsedResult {
  std::uint64_t total_simulations = 0;
  std::vector<glova::core::GlovaResult> entries;
};

ParsedResult parse_result(const std::string& text) {
  ParsedResult parsed;
  std::istringstream in(text);
  std::string line;
  std::getline(in, line);
  std::istringstream header(line);
  std::size_t count = 0;
  for (std::string key; header >> key;) {
    if (key == "entries") header >> count;
    if (key == "total_simulations") header >> parsed.total_simulations;
  }
  for (std::size_t i = 0; i < count; ++i) {
    for (int skip = 0; skip < 3; ++skip) std::getline(in, line);
    parsed.entries.push_back(glova::core::read_glova_result(in));
  }
  return parsed;
}

std::unique_ptr<glova::serve::Server> start_server(const Options& options,
                                                   const std::string& spool, Tracer& tracer,
                                                   const ActiveSpan& active,
                                                   CircuitsCounters& counters) {
  glova::serve::ServerConfig config;
  config.spool_dir = spool;
  std::filesystem::remove_all(config.spool_dir);
  if (options.trace) {
    config.make_testbench = [&tracer, &active, &counters](const glova::core::RunSpec& spec) {
      return std::make_shared<const TracedTestbench>(
          glova::circuits::make_testbench(spec.testcase, spec.backend), tracer, active, counters);
    };
  }
  auto server = std::make_unique<glova::serve::Server>(std::move(config));
  server->start();
  return server;
}

}  // namespace

void run_serve_jobs(const Options& options, Report& report) {
  Tracer tracer(options.trace);
  ActiveSpan active;  // sessions interleave here, so circuits spans carry no parent
  CircuitsCounters counters;

  // Set-up: server construction, spool recovery, bind and thread start, then
  // one untimed warm-up job through the protocol (first-use costs).
  const std::string spool = options.workdir + "/spool-" + std::to_string(::getpid());
  std::unique_ptr<glova::serve::Server> server =
      start_server(options, spool, tracer, active, counters);
  {
    Tracer off(false);
    JobRun warm;
    warm.sweep = job_sweep(kWarmUpSeed, kWarmUpSeed + 1);
    Connection commands(server->port());
    run_job(server->port(), commands, "warm-up", warm, off, 0);
    if (warm.error) throw std::runtime_error("warm-up job failed: " + warm.error_text);
  }
  tracer.clear();
  counters.evals = 0;
  announce_ready();
  if (options.setup_only) {
    server->stop(true);
    std::filesystem::remove_all(spool);
    return;
  }

  std::vector<double> round_walls;
  std::vector<JobRun> jobs;
  const std::int64_t start = now_ns();
  for (std::uint64_t round = 0;; ++round) {
    std::vector<JobRun> round_jobs(kTenants * kJobsPerTenant);
    for (std::size_t i = 0; i < round_jobs.size(); ++i) {
      round_jobs[i].sweep = job_sweep(session_seed(options.seed, round, 2 * i),
                                      session_seed(options.seed, round, 2 * i + 1));
    }
    const std::int64_t round_start = now_ns();
    std::vector<std::thread> clients;
    for (std::size_t t = 0; t < kTenants; ++t) {
      clients.emplace_back([&, t] {
        const std::string tenant = "tenant-" + std::to_string(t);
        try {
          Connection commands(server->port());
          for (std::size_t j = 0; j < kJobsPerTenant; ++j) {
            const std::size_t slot = t * kJobsPerTenant + j;
            run_job(server->port(), commands, tenant, round_jobs[slot], tracer,
                    jobs.size() + slot + 1);
          }
        } catch (const std::exception& e) {
          for (std::size_t j = 0; j < kJobsPerTenant; ++j) {
            JobRun& job = round_jobs[t * kJobsPerTenant + j];
            if (job.state.empty() && !job.error) {
              job.error = true;
              job.error_text = e.what();
            }
          }
        }
      });
    }
    for (std::thread& c : clients) c.join();
    round_walls.push_back(seconds_between(round_start, now_ns()));
    for (JobRun& job : round_jobs) jobs.push_back(std::move(job));
    if (run_complete(start, options.seconds, jobs.size(), kTailPercentile)) break;
  }
  const double timed = seconds_between(start, now_ns());
  const double rss = peak_rss_mb();
  server->stop(true);
  server.reset();
  std::filesystem::remove_all(spool);

  std::vector<double> latencies;
  std::vector<double> submit_ms;
  std::vector<double> first_iteration_s;
  std::vector<double> result_ms;
  std::uint64_t requested = 0;
  glova::core::EngineStats engine_total;
  std::uint64_t events = 0;
  std::uint64_t rejected = 0;
  std::size_t sessions = 0;
  std::size_t verified = 0;
  double sims_v = 0.0;
  double iters_v = 0.0;
  std::string errors;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobRun& job = jobs[i];
    ++report.attempted;
    if (job.error) {
      ++report.failed;
      if (job.error_text.rfind("ERR", 0) == 0) ++rejected;
      if (errors.size() < 400) errors += job.error_text + "; ";
      continue;
    }
    latencies.push_back(job.latency_s);
    submit_ms.push_back(job.submit_s * 1e3);
    first_iteration_s.push_back(job.first_iteration_s);
    result_ms.push_back(job.result_s * 1e3);
    events += job.events;
    const ParsedResult parsed = parse_result(job.result);
    requested += parsed.total_simulations;
    for (std::size_t e = 0; e < parsed.entries.size(); ++e) {
      const glova::core::GlovaResult& r = parsed.entries[e];
      accumulate(engine_total, r.engine_stats);
      ++sessions;
      if (r.success) {
        ++verified;
        iters_v += static_cast<double>(r.rl_iterations);
        sims_v += static_cast<double>(r.n_simulations);
      }
      report.outcome("job-" + std::to_string(i) + "/seed=" + std::to_string(job.sweep.seeds[e]),
                     r.success, r.rl_iterations, r.n_simulations);
    }
  }
  report_end_to_end(report, round_walls, latencies, kTailPercentile, requested, timed, rss);
  report.check("every job served to done", errors.empty(), errors);

  // A served RESULT must be byte-identical to the same sweep run in-process
  // through core::Campaign and rendered by format_campaign_result.  Replaying
  // every job would cost most of a run again, so one seed-chosen job per
  // tenant and round is replayed, on one thread per tenant.
  {
    glova::Rng pick = glova::Rng(options.seed).split(0x5E12E);
    std::vector<std::size_t> chosen;
    for (std::size_t first = 0; first < jobs.size(); first += kJobsPerTenant) {
      chosen.push_back(first + pick.index(kJobsPerTenant));
    }
    std::vector<std::string> expected(chosen.size());
    std::vector<std::thread> replays;
    for (std::size_t t = 0; t < kTenants; ++t) {
      replays.emplace_back([&, t] {
        for (std::size_t c = t; c < chosen.size(); c += kTenants) {
          glova::core::Campaign campaign(jobs[chosen[c]].sweep);
          expected[c] =
              strip_trailing_newlines(glova::serve::format_campaign_result(campaign.run()));
        }
      });
    }
    for (std::thread& r : replays) r.join();
    std::string mismatch;
    for (std::size_t c = 0; c < chosen.size(); ++c) {
      const JobRun& job = jobs[chosen[c]];
      if (!job.error && expected[c] != job.result) {
        mismatch += "job " + std::to_string(chosen[c]) + "; ";
      }
    }
    report.check("served RESULT byte-identical to in-process Campaign (" +
                     std::to_string(chosen.size()) + " sampled jobs)",
                 mismatch.empty(), mismatch);
  }

  const double n_verified = static_cast<double>(verified);
  report.metric("session.verify_rate",
                sessions ? n_verified / static_cast<double>(sessions) : 0.0);
  report.metric("session.sims_per_verified", verified ? sims_v / n_verified : 0.0);
  report.metric("session.iters_per_verified", verified ? iters_v / n_verified : 0.0);
  report.metric("serve.submit_ms_p50", percentile(submit_ms, 50.0));
  report.metric("serve.first_iteration_s_p50", percentile(first_iteration_s, 50.0));
  report.metric("serve.result_ms_p50", percentile(result_ms, 50.0));
  report.metric("serve.events", static_cast<double>(events));
  report.metric("serve.rejected", static_cast<double>(rejected));
  report_engine_stats(report, engine_total);

  if (!options.trace) return;
  const std::vector<Span> spans = tracer.collect();
  report_circuits(report, spans, counters);
  report.metric("trace.spans", static_cast<double>(spans.size()));
  write_spans(options.workdir + "/spans-serve-jobs.tsv", spans);
}

}  // namespace glovabench
