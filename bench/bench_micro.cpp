// Micro-benchmarks (google-benchmark) for the hot paths under the tables:
// behavioral circuit evaluation, mismatch sampling, the SPICE transient,
// network updates, and the reordering math.
#include <benchmark/benchmark.h>

#include "circuits/registry.hpp"
#include "circuits/spice_backend.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/evaluation_engine.hpp"
#include "core/optimizer.hpp"
#include "core/reordering.hpp"
#include "nn/adam.hpp"
#include "nn/mlp.hpp"
#include "opt/gp.hpp"
#include "pdk/variation.hpp"
#include "rl/agent.hpp"
#include "rl/ensemble_critic.hpp"
#include "spice/lu.hpp"
#include "spice/simulator.hpp"
#include "stats/pearson.hpp"

using namespace glova;

static void BM_BehavioralEval(benchmark::State& state) {
  const auto tb =
      circuits::make_testbench(static_cast<circuits::Testcase>(state.range(0)));
  const auto& sz = tb->sizing();
  std::vector<double> x01(sz.dimension(), 0.5);
  const auto x = sz.denormalize(x01);
  const auto layout = tb->mismatch_layout(x, true);
  Rng rng(1);
  const auto hs = pdk::sample_mismatch_set(layout, 1, rng, pdk::GlobalMode::PerSample);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tb->evaluate(x, pdk::typical_corner(), hs[0]));
  }
}
BENCHMARK(BM_BehavioralEval)->Arg(0)->Arg(1)->Arg(2);

static void BM_MismatchSample(benchmark::State& state) {
  const auto tb = circuits::make_testbench(circuits::Testcase::DramOcsa);
  const auto& sz = tb->sizing();
  std::vector<double> x01(sz.dimension(), 0.5);
  const auto x = sz.denormalize(x01);
  const auto layout = tb->mismatch_layout(x, true);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pdk::sample_mismatch_set(layout, state.range(0), rng, pdk::GlobalMode::PerSample));
  }
}
BENCHMARK(BM_MismatchSample)->Arg(3)->Arg(100)->Arg(1000);

static void BM_SpiceSalTransient(benchmark::State& state) {
  // The SPICE run path under every SAL evaluation: netlist build, DC op,
  // transient, measurement extraction.  Arg 0 = fixed 3000-step grid, arg 1
  // = LTE-adaptive timestep controller.
  spice::EvalContext numerics;
  numerics.options.adaptive_timestep = state.range(0) != 0;
  const spice::ScopedEvalContext scope(numerics);
  circuits::StrongArmLatchSpice sal;
  const auto& sz = sal.sizing();
  std::vector<double> x01 = {0.2, 0.3, 0.2, 0.2, 0.2, 0.1, 0.2, 0, 0, 0, 0, 0, 0.05, 0.01};
  const auto x = sz.denormalize(x01);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sal.evaluate(x, pdk::typical_corner(), {}));
  }
}
BENCHMARK(BM_SpiceSalTransient)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

static void BM_SpiceAssemblyOnly(benchmark::State& state) {
  // One Newton iteration's assembly through the compiled stamp plan: memcpy
  // of the cached static matrix + RHS base, then the MOSFET companion pass.
  circuits::StrongArmLatchSpice sal;
  const auto x = sal.sizing().denormalize(
      std::vector<double>{0.2, 0.3, 0.2, 0.2, 0.2, 0.1, 0.2, 0, 0, 0, 0, 0, 0.05, 0.01});
  const spice::Circuit ckt = sal.build_netlist(x, pdk::typical_corner(), {});
  spice::StampPlan plan(ckt, {});
  std::vector<double> x_prev(plan.padded_size(), 0.0);
  std::vector<double> cap_current(ckt.capacitors().size(), 0.0);
  spice::AssemblyInputs in;
  in.mode = spice::AnalysisMode::Transient;
  in.time = 1e-9;
  in.dt = 2e-12;
  in.trapezoidal = true;
  in.x_prev = x_prev;
  in.cap_current_prev = cap_current;
  plan.begin_solve(in);
  std::vector<double> xg(plan.padded_size(), 0.45);
  plan.load_pinned(xg);
  spice::LuSolver solver;
  spice::DenseMatrix& g = solver.matrix(plan.unknown_count());
  std::vector<double> rhs(plan.unknown_count() + 1, 0.0);
  for (auto _ : state) {
    plan.stamp(xg, g, rhs);
    benchmark::DoNotOptimize(g.data());
    benchmark::DoNotOptimize(rhs.data());
  }
}
BENCHMARK(BM_SpiceAssemblyOnly);

static void BM_SpiceNewtonOp(benchmark::State& state) {
  // A full cold DC Newton solve (assembly + fused LU each iteration) on the
  // SAL netlist with a warm workspace.  Arg 0 keeps the recorded row name.
  circuits::StrongArmLatchSpice sal;
  const auto x = sal.sizing().denormalize(
      std::vector<double>{0.2, 0.3, 0.2, 0.2, 0.2, 0.1, 0.2, 0, 0, 0, 0, 0, 0.05, 0.01});
  const spice::Circuit ckt = sal.build_netlist(x, pdk::typical_corner(), {});
  spice::Simulator sim(ckt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.operating_point());
  }
}
BENCHMARK(BM_SpiceNewtonOp)->Arg(0);

static void BM_LuSolve(benchmark::State& state) {
  const std::size_t n = state.range(0);
  Rng rng(2);
  spice::DenseMatrix a(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a.at(i, j) = rng.uniform(-1.0, 1.0);
    a.at(i, i) += static_cast<double>(n);
  }
  const std::vector<double> b = rng.uniform_vector(n, -1.0, 1.0);
  for (auto _ : state) {
    spice::LuSolver solver;
    benchmark::DoNotOptimize(solver.factor(a));
    benchmark::DoNotOptimize(solver.solve(b));
  }
}
BENCHMARK(BM_LuSolve)->Arg(16)->Arg(64);

static void BM_EngineBatch(benchmark::State& state) {
  // The evaluation funnel under every table: one design, one corner, a batch
  // of fresh mismatch draws through the caching engine.
  core::EvaluationEngine engine(circuits::make_testbench(circuits::Testcase::DramOcsa));
  const auto& sz = engine.testbench().sizing();
  std::vector<double> x01(sz.dimension(), 0.5);
  const auto x = sz.denormalize(x01);
  const auto layout = engine.testbench().mismatch_layout(x, false);
  Rng rng(6);
  for (auto _ : state) {
    state.PauseTiming();
    const auto hs =
        pdk::sample_mismatch_set(layout, state.range(0), rng, pdk::GlobalMode::Zero);
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine.evaluate_batch(x, pdk::typical_corner(), hs));
  }
}
BENCHMARK(BM_EngineBatch)->Arg(3)->Arg(32)->Arg(100);

static void BM_EngineCacheHit(benchmark::State& state) {
  core::EvaluationEngine engine(circuits::make_testbench(circuits::Testcase::DramOcsa));
  const auto& sz = engine.testbench().sizing();
  std::vector<double> x01(sz.dimension(), 0.5);
  const auto x = sz.denormalize(x01);
  (void)engine.evaluate_one(x, pdk::typical_corner(), {});  // prime
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.evaluate_one(x, pdk::typical_corner(), {}));
  }
}
BENCHMARK(BM_EngineCacheHit);

static void BM_GlovaRunCornerOnly(benchmark::State& state) {
  // End-to-end GlovaOptimizer::run — TuRBO init, RL loop, verification —
  // on the behavioral SAL bench, corner-only regime, fixed seed.
  set_log_level(LogLevel::Warn);
  const auto tb = circuits::make_testbench(circuits::Testcase::Sal);
  for (auto _ : state) {
    core::GlovaConfig cfg;
    cfg.method = core::VerifMethod::C;
    cfg.seed = 1;
    cfg.max_iterations = 200;
    core::GlovaOptimizer opt(tb, cfg);
    const auto res = opt.run();
    benchmark::DoNotOptimize(res.n_simulations);
  }
}
BENCHMARK(BM_GlovaRunCornerOnly)->Unit(benchmark::kMillisecond);

static void BM_CriticUpdate(benchmark::State& state) {
  Rng rng(3);
  rl::CriticConfig cfg;
  rl::EnsembleCritic critic(14, cfg, rng);
  std::vector<rl::Experience> data(10);
  std::vector<const rl::Experience*> batch;
  for (rl::Experience& e : data) {
    e.x01 = rng.uniform_vector(14, 0.0, 1.0);
    e.reward = rng.uniform(-1.0, 0.2);
    batch.push_back(&e);
  }
  for (auto _ : state) {
    for (std::size_t i = 0; i < critic.ensemble_size(); ++i) {
      benchmark::DoNotOptimize(critic.train_base(i, batch));
    }
  }
}
BENCHMARK(BM_CriticUpdate);

// One Algorithm-1 update at the GLOVA defaults (5-member critic, batch 10)
// on a p = 14 design space: five critic steps plus one actor step.
static void BM_AgentUpdate(benchmark::State& state) {
  Rng rng(4);
  rl::RiskSensitiveAgent agent(14, rl::AgentConfig{}, rng.split(1));
  rl::WorstCaseReplayBuffer buffer;
  for (int i = 0; i < 200; ++i) {
    buffer.add(rng.uniform_vector(14, 0.0, 1.0), rng.uniform(-1.0, 0.2));
  }
  for (auto _ : state) benchmark::DoNotOptimize(agent.update(buffer));
}
BENCHMARK(BM_AgentUpdate);

// Training-mode forward pass of the actor network (14 -> 64 x 3 -> 14).
static void BM_MlpForward(benchmark::State& state) {
  Rng rng(5);
  const nn::Mlp net({14, 64, 64, 64, 14}, nn::Activation::Tanh, nn::Activation::Sigmoid, rng);
  const std::vector<double> x = rng.uniform_vector(14, 0.0, 1.0);
  nn::Mlp::Workspace ws;
  for (auto _ : state) benchmark::DoNotOptimize(net.forward(x, ws).data());
}
BENCHMARK(BM_MlpForward);

static void BM_HScoreReordering(benchmark::State& state) {
  Rng rng(4);
  const std::size_t n = state.range(0);
  const std::size_t r = 21;
  std::vector<std::vector<double>> hs(n);
  for (auto& h : hs) h = rng.normal_vector(r);
  const std::vector<double> rho = rng.normal_vector(r);
  for (auto _ : state) {
    std::vector<double> scores(n);
    for (std::size_t i = 0; i < n; ++i) scores[i] = core::h_score(hs[i], rho);
    benchmark::DoNotOptimize(core::order_descending(scores));
  }
}
BENCHMARK(BM_HScoreReordering)->Arg(1000);

static void BM_GpFitPredict(benchmark::State& state) {
  Rng rng(5);
  const std::size_t n = state.range(0);
  std::vector<std::vector<double>> xs(n);
  std::vector<double> ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = rng.uniform_vector(14, 0.0, 1.0);
    ys[i] = std::sin(xs[i][0] * 6.0) + 0.1 * rng.normal();
  }
  const std::vector<double> q = rng.uniform_vector(14, 0.0, 1.0);
  for (auto _ : state) {
    opt::GaussianProcess gp;
    gp.fit(xs, ys);
    benchmark::DoNotOptimize(gp.predict(q));
  }
}
BENCHMARK(BM_GpFitPredict)->Arg(50)->Arg(150)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
