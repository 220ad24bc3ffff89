#include "core/optimizer.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

#include "common/log.hpp"
#include "common/state_io.hpp"
#include "core/mu_sigma.hpp"
#include "core/reward.hpp"
#include "opt/turbo.hpp"
#include "pdk/variation.hpp"

namespace glova::core {

struct GlovaOptimizer::Session {
  EvaluationEngine service;
  Rng rng;
  Rng mc_rng{0};
  rl::WorstCaseReplayBuffer buffer;
  rl::LastWorstBuffer last_worst;
  std::unique_ptr<rl::RiskSensitiveAgent> agent;
  std::unique_ptr<Verifier> verifier;
  std::vector<double> x_last;
  std::size_t iter = 0;

  Session(circuits::TestbenchPtr testbench, const GlovaConfig& config, std::size_t corner_count)
      : service(std::move(testbench), config.engine),
        rng(config.seed),
        last_worst(corner_count) {}
};

GlovaOptimizer::GlovaOptimizer(circuits::TestbenchPtr testbench, GlovaConfig config)
    : testbench_(std::move(testbench)),
      config_(config),
      op_config_(OperationalConfig::for_method(config.method, config.n_opt_samples,
                                               config.corner_filter)) {}

GlovaOptimizer::~GlovaOptimizer() = default;

const EvaluationEngine* GlovaOptimizer::engine_ptr() const {
  return s_ ? &s_->service : nullptr;
}

rl::AgentConfig GlovaOptimizer::agent_config() const {
  rl::AgentConfig agent_cfg;
  agent_cfg.critic.ensemble_size = config_.use_ensemble_critic ? config_.ensemble_size : 1;
  agent_cfg.critic.beta1 = config_.use_ensemble_critic ? config_.beta1 : 0.0;
  agent_cfg.critic.hidden = config_.hidden;
  agent_cfg.hidden = config_.hidden;
  agent_cfg.batch_size = config_.batch_size;
  return agent_cfg;
}

VerifierOptions GlovaOptimizer::verifier_options() const {
  VerifierOptions verif_opts;
  verif_opts.beta2 = config_.beta2;
  verif_opts.use_mu_sigma = config_.use_mu_sigma;
  verif_opts.use_reordering = config_.use_reordering;
  return verif_opts;
}

void GlovaOptimizer::do_save_state(std::ostream& os) const {
  const Session& s = *s_;
  os << "glova " << s.iter << '\n';
  os << "rng " << s.rng.save() << '\n';
  os << "mc_rng " << s.mc_rng.save() << '\n';
  state::write_doubles(os, "x_last", s.x_last);
  s.buffer.save(os);
  s.last_worst.save(os);
  s.agent->save(os);
  s.service.save_state(os);
}

void GlovaOptimizer::do_load_state(std::istream& is) {
  s_ = std::make_unique<Session>(testbench_, config_, op_config_.corner_count());
  Session& s = *s_;
  s.iter = state::parse_u64(state::expect_line(is, "glova"), "GLOVA iteration");
  s.rng.restore(state::expect_line(is, "rng"));
  s.mc_rng.restore(state::expect_line(is, "mc_rng"));
  s.x_last = state::read_doubles(is, "x_last");
  s.buffer.load(is);
  s.last_worst.load(is);
  // The constructor seed stream is a placeholder: agent->load overwrites
  // every weight, moment, and RNG word with the saved state.
  const std::size_t p = testbench_->sizing().dimension();
  s.agent = std::make_unique<rl::RiskSensitiveAgent>(p, agent_config(), s.rng.split(0xA6E7));
  s.agent->load(is);
  s.verifier = std::make_unique<Verifier>(s.service, op_config_, verifier_options());
  s.service.load_state(is);
}

void GlovaOptimizer::do_start() {
  s_ = std::make_unique<Session>(testbench_, config_, op_config_.corner_count());
  Session& s = *s_;
  EvaluationEngine& service = s.service;
  const circuits::SizingSpec& sizing = testbench_->sizing();
  const std::size_t p = sizing.dimension();

  // ---------------- Step 0: TuRBO initial sampling (typical condition) ----
  opt::TurboConfig turbo_cfg;
  turbo_cfg.n_init = std::max<std::size_t>(8, p);
  opt::Turbo turbo(p, turbo_cfg, s.rng.split(0x7B0));
  const pdk::PvtCorner typical = pdk::typical_corner();
  const circuits::PerformanceSpec& spec = testbench_->performance();
  // Always collect at least the warmup set: even when the first sample is
  // already typical-feasible, the replay buffer needs a diverse initial
  // dataset for the critic.
  const std::size_t turbo_min = std::min<std::size_t>(turbo_cfg.n_init + 4, config_.turbo_budget);
  while (service.simulation_count() < config_.turbo_budget) {
    const auto points = turbo.ask(1);
    std::vector<double> values;
    values.reserve(points.size());
    for (const auto& x01 : points) {
      const auto x = sizing.denormalize(x01);
      values.push_back(reward_from_metrics(spec, service.evaluate_one(x, typical, {})));
    }
    turbo.tell(points, values);
    if (turbo.best_value() >= kSuccessReward && service.simulation_count() >= turbo_min) break;
  }
  result_.turbo_evaluations = service.simulation_count();
  log_info("GLOVA init: TuRBO best reward ", turbo.best_value(), " after ",
           result_.turbo_evaluations, " typical-condition simulations");

  // ---------------- Initial dataset: simulate across all corners ----------
  std::vector<double> x_best = turbo.best_point();
  if (x_best.empty()) x_best = s.rng.uniform_vector(p, 0.0, 1.0);
  {
    // The best initial design is simulated under every PVT corner; its worst
    // rewards initialize the last-worst-case buffer and the replay buffer.
    const auto x = sizing.denormalize(x_best);
    Rng stream = s.rng.split(0x1717);
    double overall_worst = std::numeric_limits<double>::max();
    for (std::size_t j = 0; j < op_config_.corner_count(); ++j) {
      const auto hs = op_config_.sample_conditions(*testbench_, x, op_config_.n_opt, stream);
      const auto metrics = service.evaluate_batch(x, op_config_.corners[j], hs);
      const double w = worst_reward_of(spec, metrics);
      s.last_worst.update(j, w);
      overall_worst = std::min(overall_worst, w);
    }
    s.buffer.add(x_best, overall_worst);
  }
  {
    // A few more TuRBO designs, evaluated at the current worst corner only,
    // densify the initial dataset cheaply.
    Rng stream = s.rng.split(0x1718);
    const std::size_t worst_j = s.last_worst.worst_corner();
    for (const auto& x01 : turbo.top_points(config_.init_buffer_seeds + 1)) {
      if (x01 == x_best) continue;
      const auto x = sizing.denormalize(x01);
      const auto hs = op_config_.sample_conditions(*testbench_, x, op_config_.n_opt, stream);
      const auto metrics = service.evaluate_batch(x, op_config_.corners[worst_j], hs);
      s.buffer.add(x01, worst_reward_of(spec, metrics));
    }
  }

  // ---------------- Risk-sensitive agent ----------------------------------
  s.agent = std::make_unique<rl::RiskSensitiveAgent>(p, agent_config(), s.rng.split(0xA6E7));
  s.verifier = std::make_unique<Verifier>(service, op_config_, verifier_options());

  // Warm up the agent on the initial dataset.
  for (int i = 0; i < 100; ++i) (void)s.agent->update(s.buffer);

  s.x_last = std::move(x_best);
  s.mc_rng = s.rng.split(0x3C3C);
  result_.termination = "iteration-cap";
}

// One iteration of the main loop (Fig. 2 steps 1-6).
bool GlovaOptimizer::do_step() {
  Session& s = *s_;
  if (s.iter >= config_.max_iterations) return false;
  const std::size_t iter = ++s.iter;
  EvaluationEngine& service = s.service;
  const circuits::SizingSpec& sizing = testbench_->sizing();
  const circuits::PerformanceSpec& spec = testbench_->performance();

  // (1) new design from the actor, screened by the ensemble bound (Eq. 6).
  rl::RiskSensitiveAgent::Proposal proposal = s.agent->propose_screened(s.x_last, 8);
  std::vector<double> x_new = std::move(proposal.x);
  const auto x_phys = sizing.denormalize(x_new);

  // (2) worst corner + N' mismatch conditions via Eq. (3).
  const std::size_t worst_j = s.last_worst.worst_corner();
  const auto hs = op_config_.sample_conditions(*testbench_, x_phys, op_config_.n_opt, s.mc_rng);

  // (3) simulate under the sampled conditions.
  const auto metrics = service.evaluate_batch(x_phys, op_config_.corners[worst_j], hs);
  const double r_worst = worst_reward_of(spec, metrics);
  s.last_worst.update(worst_j, r_worst);

  // (4) mu-sigma gate: is full verification worthwhile?
  const MuSigmaResult ms = mu_sigma_evaluate(spec, metrics, config_.beta2);
  const bool gate = config_.use_mu_sigma ? ms.pass : (r_worst == kSuccessReward);

  IterationTrace trace;
  trace.iteration = iter;
  trace.reward_worst = r_worst;
  trace.critic_mean = proposal.bound.mean;
  trace.critic_bound = proposal.bound.risk_adjusted;
  trace.mu_sigma_pass = gate;

  double r_store = r_worst;
  if (gate) {
    // (5) full verification with reordered PVT conditions.
    trace.attempted_verification = true;
    CornerPresample reuse;
    reuse.corner_index = worst_j;
    reuse.hs = hs;
    reuse.metrics = metrics;
    const VerificationOutcome outcome = s.verifier->verify(x_phys, s.last_worst, s.mc_rng, &reuse);
    for (const auto& [j, w] : outcome.corner_worst_rewards) {
      s.last_worst.update(j, w);
      r_store = std::min(r_store, w);  // verification failures are the most
                                       // informative worst-case rewards
    }
    if (outcome.passed) {
      result_.success = true;
      result_.rl_iterations = iter;
      result_.x01_final = x_new;
      result_.x_phys_final = x_phys;
      result_.termination = "verified";
      trace.sims_total = service.simulation_count();
      result_.trace.push_back(trace);
      return false;
    }
  }

  // (6) store the worst reward; update the agent.  Several gradient
  // rounds per environment step: network updates cost microseconds next
  // to a SPICE run, and Algorithm 1 does not couple the two one-to-one.
  s.buffer.add(x_new, r_store);
  for (int e = 0; e < 3; ++e) (void)s.agent->update(s.buffer);
  trace.sims_total = service.simulation_count();
  result_.trace.push_back(trace);
  s.x_last = std::move(x_new);
  // Re-anchor the actor input on the best-known design when the current
  // chain has drifted into a clearly worse region; the actor chain (paper
  // step 1) otherwise has no way back after a streak of bad proposals.
  if (const auto best = s.buffer.best(); best && r_store < best->reward - 0.05) {
    s.x_last = best->x01;
  }
  result_.rl_iterations = iter;
  return iter < config_.max_iterations;
}

}  // namespace glova::core
