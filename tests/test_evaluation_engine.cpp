// Tests for the EvaluationEngine: memoization-cache correctness (hits return
// identical metrics, distinct mismatch draws never alias), counter semantics
// (requested == hits + executed == simulation_count()), LRU bounding, the
// parallelism cap, the future-based submission path, the isolation of
// engines with different SPICE numerics sharing one process, and the parallel
// SPICE path's bit-identity to direct evaluation.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "circuits/registry.hpp"
#include "core/config.hpp"
#include "core/evaluation_engine.hpp"
#include "pdk/variation.hpp"
#include "spice/counters.hpp"

namespace glova::core {
namespace {

std::vector<double> midpoint_design(const circuits::Testbench& tb) {
  std::vector<double> x01(tb.sizing().dimension(), 0.5);
  return tb.sizing().denormalize(x01);
}

TEST(EvaluationEngine, CacheHitReturnsIdenticalMetrics) {
  EvaluationEngine engine(circuits::make_testbench(circuits::Testcase::Sal));
  const auto x = midpoint_design(engine.testbench());
  const auto layout = engine.testbench().mismatch_layout(x, false);
  Rng rng(7);
  const auto hs = pdk::sample_mismatch_set(layout, 1, rng, pdk::GlobalMode::Zero);

  const auto first = engine.evaluate_one(x, pdk::typical_corner(), hs[0]);
  const auto second = engine.evaluate_one(x, pdk::typical_corner(), hs[0]);
  EXPECT_EQ(first, second);  // bit-identical, not re-simulated

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requested, 2u);
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST(EvaluationEngine, DistinctMismatchDrawsDoNotShareCacheEntries) {
  EvaluationEngine engine(circuits::make_testbench(circuits::Testcase::Sal));
  const auto x = midpoint_design(engine.testbench());
  const auto layout = engine.testbench().mismatch_layout(x, false);
  Rng rng(11);
  const auto hs = pdk::sample_mismatch_set(layout, 8, rng, pdk::GlobalMode::Zero);

  const auto batch = engine.evaluate_batch(x, pdk::typical_corner(), hs);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requested, 8u);
  EXPECT_EQ(stats.executed, 8u);  // every draw is distinct: no false sharing
  EXPECT_EQ(stats.cache_hits, 0u);
  // Different mismatch conditions really produce different metrics.
  EXPECT_NE(batch[0], batch[1]);

  // Re-requesting the same draws is now free.
  const auto again = engine.evaluate_batch(x, pdk::typical_corner(), hs);
  EXPECT_EQ(batch, again);
  EXPECT_EQ(engine.stats().executed, 8u);
  EXPECT_EQ(engine.stats().cache_hits, 8u);
}

TEST(EvaluationEngine, CountersMatchSimulationCountSemantics) {
  // simulation_count() keeps the paper's "# Simulation" meaning: every
  // *requested* evaluation counts, whether the cache answered it or not.
  EvaluationEngine engine(circuits::make_testbench(circuits::Testcase::Sal));
  const auto x = midpoint_design(engine.testbench());

  (void)engine.evaluate_one(x, pdk::typical_corner(), {});
  const std::vector<std::vector<double>> nominal(5);  // five nominal-h repeats
  (void)engine.evaluate_batch(x, pdk::typical_corner(), nominal);

  const EngineStats stats = engine.stats();
  EXPECT_EQ(engine.simulation_count(), 6u);
  EXPECT_EQ(stats.requested, engine.simulation_count());
  EXPECT_EQ(stats.requested, stats.executed + stats.cache_hits);
  EXPECT_EQ(stats.executed, 1u);  // one real run; five answered from cache

  engine.reset_count();
  EXPECT_EQ(engine.simulation_count(), 0u);
  EXPECT_EQ(engine.stats().executed, 0u);
  EXPECT_EQ(engine.stats().cache_hits, 0u);
}

TEST(EvaluationEngine, DisabledCacheAlwaysExecutes) {
  EngineConfig cfg;
  cfg.cache_capacity = 0;
  EvaluationEngine engine(circuits::make_testbench(circuits::Testcase::Fia), cfg);
  const auto x = midpoint_design(engine.testbench());
  (void)engine.evaluate_one(x, pdk::typical_corner(), {});
  (void)engine.evaluate_one(x, pdk::typical_corner(), {});
  EXPECT_EQ(engine.stats().executed, 2u);
  EXPECT_EQ(engine.stats().cache_hits, 0u);
  EXPECT_EQ(engine.cache_size(), 0u);
}

TEST(EvaluationEngine, LruEvictionKeepsCacheBounded) {
  EngineConfig cfg;
  cfg.cache_capacity = 2;
  EvaluationEngine engine(circuits::make_testbench(circuits::Testcase::Sal), cfg);
  const auto x = midpoint_design(engine.testbench());
  const auto corners = pdk::full_corner_set();

  (void)engine.evaluate_one(x, corners[0], {});
  (void)engine.evaluate_one(x, corners[1], {});
  (void)engine.evaluate_one(x, corners[2], {});  // evicts corners[0]
  EXPECT_EQ(engine.cache_size(), 2u);

  (void)engine.evaluate_one(x, corners[0], {});  // must re-run
  EXPECT_EQ(engine.stats().executed, 4u);
  (void)engine.evaluate_one(x, corners[2], {});  // still resident
  EXPECT_EQ(engine.stats().cache_hits, 1u);
}

TEST(EvaluationEngine, SubmitResolvesLikeEvaluateOne) {
  EvaluationEngine engine(circuits::make_testbench(circuits::Testcase::DramOcsa));
  const auto x = midpoint_design(engine.testbench());
  auto fut = engine.submit(x, pdk::typical_corner(), {});
  const auto async_metrics = fut.get();
  const auto sync_metrics = engine.evaluate_one(x, pdk::typical_corner(), {});
  EXPECT_EQ(async_metrics, sync_metrics);
  EXPECT_EQ(engine.simulation_count(), 2u);
  EXPECT_EQ(engine.stats().executed, 1u);

  // A cached submit resolves immediately.
  auto fut2 = engine.submit(x, pdk::typical_corner(), {});
  EXPECT_EQ(fut2.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(fut2.get(), sync_metrics);
}

TEST(EvaluationEngine, DestructionDrainsPendingSubmits) {
  // Discarding the future and destroying the engine must not leave a queued
  // task touching freed state: the destructor drains in-flight submits.
  const auto tb = circuits::make_testbench(circuits::Testcase::Sal);
  const auto x = midpoint_design(*tb);
  for (int round = 0; round < 4; ++round) {
    EvaluationEngine engine(tb);
    (void)engine.submit(x, pdk::typical_corner(), {});
    (void)engine.submit(x, pdk::full_corner_set()[round], {});
  }  // engine destroyed with results never collected
  SUCCEED();
}

/// Testbench that records the maximum number of concurrent evaluations.
class ConcurrencyProbeBench final : public circuits::Testbench {
 public:
  ConcurrencyProbeBench() {
    sizing_.names = {"x0"};
    sizing_.lower = {0.0};
    sizing_.upper = {1.0};
    performance_.metrics = {
        circuits::MetricSpec{"m", "u", 1.0, 1.0, circuits::Sense::MinimizeBelow}};
  }

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const circuits::SizingSpec& sizing() const override { return sizing_; }
  [[nodiscard]] const circuits::PerformanceSpec& performance() const override {
    return performance_;
  }
  [[nodiscard]] pdk::MismatchLayout mismatch_layout(std::span<const double>,
                                                    bool) const override {
    pdk::MismatchLayout layout;
    layout.names = {"h0"};
    layout.local_sigma = {1.0};
    layout.global_sigma = {0.0};
    return layout;
  }
  [[nodiscard]] std::vector<double> evaluate(std::span<const double>, const pdk::PvtCorner&,
                                             std::span<const double> h) const override {
    const int now = in_flight_.fetch_add(1) + 1;
    int seen = max_in_flight_.load();
    while (now > seen && !max_in_flight_.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    in_flight_.fetch_sub(1);
    return {h.empty() ? 0.0 : h[0]};
  }

  [[nodiscard]] int max_in_flight() const { return max_in_flight_.load(); }

 private:
  std::string name_ = "concurrency-probe";
  circuits::SizingSpec sizing_;
  circuits::PerformanceSpec performance_;
  mutable std::atomic<int> in_flight_{0};
  mutable std::atomic<int> max_in_flight_{0};
};

TEST(EvaluationEngine, ParallelismSettingCapsFanOut) {
  const auto probe = std::make_shared<ConcurrencyProbeBench>();
  EngineConfig cfg;
  cfg.parallelism = 2;
  cfg.min_parallel_batch = 2;
  EvaluationEngine engine(probe, cfg);

  // 24 distinct mismatch draws so nothing is answered from the cache.
  std::vector<std::vector<double>> hs;
  for (int i = 0; i < 24; ++i) hs.push_back({static_cast<double>(i)});
  const std::vector<double> x = {0.5};
  const auto results = engine.evaluate_batch(x, pdk::typical_corner(), hs);

  ASSERT_EQ(results.size(), hs.size());
  for (std::size_t i = 0; i < hs.size(); ++i) EXPECT_EQ(results[i][0], hs[i][0]);  // order kept
  EXPECT_LE(probe->max_in_flight(), 2);
}

TEST(EvaluationEngine, SubmitHonorsTheParallelismCap) {
  // Individually submitted evaluations used to bypass EngineConfig::
  // parallelism entirely (documented gap); they now draw from the same
  // counting semaphore as evaluate_batch.
  const auto probe = std::make_shared<ConcurrencyProbeBench>();
  EngineConfig cfg;
  cfg.parallelism = 2;
  EvaluationEngine engine(probe, cfg);

  const std::vector<double> x = {0.5};
  std::vector<std::future<std::vector<double>>> futures;
  std::vector<std::vector<double>> hs;
  for (int i = 0; i < 24; ++i) hs.push_back({static_cast<double>(i)});
  for (const auto& h : hs) futures.push_back(engine.submit(x, pdk::typical_corner(), h));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get()[0], hs[i][0]);
  }
  EXPECT_LE(probe->max_in_flight(), 2);
  EXPECT_EQ(engine.stats().executed, 24u);
}

TEST(EvaluationEngine, MixedSubmitAndBatchShareOneCap) {
  const auto probe = std::make_shared<ConcurrencyProbeBench>();
  EngineConfig cfg;
  cfg.parallelism = 3;
  cfg.min_parallel_batch = 2;
  EvaluationEngine engine(probe, cfg);

  const std::vector<double> x = {0.5};
  std::vector<std::future<std::vector<double>>> futures;
  for (int i = 0; i < 8; ++i) {
    const std::vector<double> h = {100.0 + i};
    futures.push_back(engine.submit(x, pdk::typical_corner(), h));
  }
  std::vector<std::vector<double>> hs;
  for (int i = 0; i < 12; ++i) hs.push_back({static_cast<double>(i)});
  (void)engine.evaluate_batch(x, pdk::typical_corner(), hs);
  for (auto& f : futures) (void)f.get();
  EXPECT_LE(probe->max_in_flight(), 3);
}

/// Minimal three-way-mismatch testbench for key-quantization properties:
/// metrics echo the draw so result identity implies key identity.
class EchoBench final : public circuits::Testbench {
 public:
  EchoBench() {
    sizing_.names = {"x0"};
    sizing_.lower = {0.0};
    sizing_.upper = {1.0};
    performance_.metrics = {
        circuits::MetricSpec{"m", "u", 1.0, 1.0, circuits::Sense::MinimizeBelow}};
  }
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const circuits::SizingSpec& sizing() const override { return sizing_; }
  [[nodiscard]] const circuits::PerformanceSpec& performance() const override {
    return performance_;
  }
  [[nodiscard]] pdk::MismatchLayout mismatch_layout(std::span<const double>,
                                                    bool) const override {
    pdk::MismatchLayout layout;
    layout.names = {"h0", "h1", "h2"};
    layout.local_sigma = {1.0, 1.0, 1.0};
    layout.global_sigma = {0.0, 0.0, 0.0};
    return layout;
  }
  [[nodiscard]] std::vector<double> evaluate(std::span<const double>, const pdk::PvtCorner&,
                                             std::span<const double> h) const override {
    double sum = 0.0;
    for (std::size_t j = 0; j < h.size(); ++j) sum += (static_cast<double>(j) + 1.0) * h[j];
    return {sum};
  }

 private:
  std::string name_ = "echo-bench";
  circuits::SizingSpec sizing_;
  circuits::PerformanceSpec performance_;
};

TEST(EvaluationEngine, MemoKeyQuantizationProperty) {
  // Property-test the memo-key quantization on randomized draws: draws that
  // differ by at least one cache quantum in some coordinate never alias
  // (every grid-distinct draw executes), and sub-quantum perturbations of a
  // cached draw always hit.  parallelism=1 keeps intra-batch duplicate
  // resolution deterministic (inserts land in submission order).
  const double q = 1e-6;
  EngineConfig cfg;
  cfg.cache_quantum = q;
  cfg.cache_capacity = 4096;
  cfg.parallelism = 1;
  EvaluationEngine engine(std::make_shared<EchoBench>(), cfg);
  const std::vector<double> x = {0.5};

  Rng rng(2026);
  std::vector<std::vector<double>> hs;
  std::set<std::array<long long, 3>> grid_distinct;
  for (int i = 0; i < 200; ++i) {
    std::array<long long, 3> g{};
    std::vector<double> h(3);
    for (int j = 0; j < 3; ++j) {
      g[j] = std::llround(rng.uniform(-1000.0, 1000.0));
      h[j] = static_cast<double>(g[j]) * q;  // exactly on the quantization grid
    }
    grid_distinct.insert(g);
    hs.push_back(std::move(h));
  }
  (void)engine.evaluate_batch(x, pdk::typical_corner(), hs);
  // No aliasing: every grid-distinct draw was simulated; grid-equal repeats
  // were answered from cache.
  EXPECT_EQ(engine.stats().executed, grid_distinct.size());
  EXPECT_EQ(engine.stats().cache_hits, hs.size() - grid_distinct.size());

  // Perturbing every coordinate by strictly less than half a quantum rounds
  // to the same key: the whole batch must be served from cache.
  std::vector<std::vector<double>> perturbed = hs;
  for (auto& h : perturbed) {
    for (double& v : h) v += q * rng.uniform(-0.49, 0.49);
  }
  (void)engine.evaluate_batch(x, pdk::typical_corner(), perturbed);
  EXPECT_EQ(engine.stats().executed, grid_distinct.size()) << "sub-quantum perturbation re-ran";
  EXPECT_EQ(engine.stats().cache_hits, 2 * hs.size() - grid_distinct.size());
}

TEST(EvaluationEngine, RejectsTheRemovedDcWarmStart) {
  EngineConfig cfg;
  EXPECT_FALSE(cfg.dc_warm_start);
  cfg.dc_warm_start = true;
  try {
    EvaluationEngine engine(std::make_shared<ConcurrencyProbeBench>(), cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("DC warm start was removed"), std::string::npos)
        << e.what();
  }
}

TEST(EvaluationEngine, SequentialParallelismNeverUsesThePool) {
  const auto probe = std::make_shared<ConcurrencyProbeBench>();
  EngineConfig cfg;
  cfg.parallelism = 1;
  EvaluationEngine engine(probe, cfg);
  std::vector<std::vector<double>> hs;
  for (int i = 0; i < 20; ++i) hs.push_back({static_cast<double>(i)});
  (void)engine.evaluate_batch(std::vector<double>{0.5}, pdk::typical_corner(), hs);
  EXPECT_EQ(probe->max_in_flight(), 1);
}

// ---------------------------------------------------------------------------
// Two engines with different SPICE numerics in one process.

/// One SAL SPICE engine's call sequence: the x = 0.5 design at the first C
/// corner, nominal and with local draws, batched over the pool.
struct SalSpiceRun {
  std::vector<double> x;
  pdk::PvtCorner corner;
  std::vector<std::vector<double>> hs;

  SalSpiceRun() {
    const auto tb = circuits::make_testbench(circuits::Testcase::Sal, circuits::Backend::Spice);
    x = midpoint_design(*tb);
    corner = OperationalConfig::for_method(VerifMethod::C).corners.front();
    Rng rng(5);
    hs = pdk::sample_mismatch_set(tb->mismatch_layout(x, false), 3, rng, pdk::GlobalMode::Zero);
    hs.insert(hs.begin(), std::vector<double>{});
  }

  static EngineConfig config(const char* mos_model) {
    EngineConfig cfg;
    cfg.mos_model = mos_model;
    cfg.min_parallel_batch = 2;  // fan the draws out over the pool
    return cfg;
  }

  static std::unique_ptr<EvaluationEngine> engine(const EngineConfig& cfg) {
    return std::make_unique<EvaluationEngine>(
        circuits::make_testbench(circuits::Testcase::Sal, circuits::Backend::Spice), cfg);
  }

  /// One step of the sequence: a single evaluation, then the draw batch.
  [[nodiscard]] std::vector<std::vector<double>> step(EvaluationEngine& engine) const {
    std::vector<std::vector<double>> out{engine.evaluate_one(x, corner, {})};
    for (auto& m : engine.evaluate_batch(x, corner, hs)) out.push_back(std::move(m));
    return out;
  }
};

bool bit_identical(const std::vector<std::vector<double>>& a,
                   const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size() ||
        std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(EngineIsolation, EachEngineComputesAsIfAlone) {
  const SalSpiceRun run;
  const EngineConfig level1 = SalSpiceRun::config("level1");
  const EngineConfig ekv = SalSpiceRun::config("ekv");
  const auto alone_level1 = run.step(*SalSpiceRun::engine(level1));
  const auto alone_ekv = run.step(*SalSpiceRun::engine(ekv));
  // The two models really differ here, so a leak would show.
  ASSERT_NE(alone_level1[0][0], alone_ekv[0][0]);

  const auto a = SalSpiceRun::engine(level1);
  const auto b = SalSpiceRun::engine(ekv);
  const auto shared_level1 = run.step(*a);
  const auto shared_ekv = run.step(*b);
  EXPECT_TRUE(bit_identical(shared_level1, alone_level1));
  EXPECT_TRUE(bit_identical(shared_ekv, alone_ekv));
  // And interleaved with the other engine's calls on the same threads.
  a->clear_cache();
  b->clear_cache();
  std::vector<std::vector<double>> again_level1;
  std::vector<std::vector<double>> again_ekv;
  std::thread other([&] { again_ekv = run.step(*b); });
  again_level1 = run.step(*a);
  other.join();
  EXPECT_TRUE(bit_identical(again_level1, alone_level1));
  EXPECT_TRUE(bit_identical(again_ekv, alone_ekv));
}

TEST(EngineIsolation, EngineCountersPartitionTheProcessTotals) {
  const SalSpiceRun run;
  EngineConfig adaptive = SalSpiceRun::config("ekv");
  adaptive.adaptive_timestep = true;
  const spice::SpiceCounters spice_before = spice::spice_counters();
  const auto a = SalSpiceRun::engine(SalSpiceRun::config("level1"));
  const auto b = SalSpiceRun::engine(adaptive);
  std::thread other([&] { (void)run.step(*b); });
  (void)run.step(*a);
  other.join();
  (void)run.step(*a);  // cache hits: no new SPICE work

  const EngineStats sa = a->stats();
  const EngineStats sb = b->stats();
  const spice::SpiceCounters sp = spice::spice_counters();
  EXPECT_GT(sb.steps_accepted, 0u);
  EXPECT_EQ(sa.steps_accepted + sb.steps_accepted,
            sp.steps_accepted - spice_before.steps_accepted);
  EXPECT_EQ(sa.steps_rejected + sb.steps_rejected,
            sp.steps_rejected - spice_before.steps_rejected);
  EXPECT_EQ(sa.recovered_dc + sb.recovered_dc, sp.recovered_dc - spice_before.recovered_dc);
  EXPECT_EQ(sa.recovered_transient + sb.recovered_transient,
            sp.recovered_transient - spice_before.recovered_transient);
  EXPECT_EQ(sa.deadline_aborts + sb.deadline_aborts,
            sp.deadline_aborts - spice_before.deadline_aborts);
}

// ---------------------------------------------------------------------------
// The engine's parallel SPICE path against direct evaluation.

/// Testbench::evaluate with the engine's failure semantics (no retries, no
/// degradation): a draw that does not converge resolves to the backend's
/// penalty metrics.
std::vector<double> evaluate_direct(const circuits::Testbench& tb, std::span<const double> x,
                                    const pdk::PvtCorner& corner, std::span<const double> h) {
  try {
    return tb.evaluate(x, corner, h);
  } catch (const circuits::EvaluationError& e) {
    return e.penalty_metrics();
  }
}

// A default engine fanning one draw batch out over the pool computes every
// draw exactly as a bare Testbench::evaluate on this thread, with no
// evaluation context installed, does: the thread a draw lands on and the
// draws before it on that thread leave no trace.  Monte Carlo sign-off
// relies on this.
TEST(EvaluationEngine, SpiceBatchMatchesDirectEvaluate) {
  const auto op_config = OperationalConfig::for_method(VerifMethod::C_MCL);
  const EngineConfig cfg;
  for (const circuits::Testcase tc : circuits::all_testcases()) {
    const auto tb = circuits::make_testbench(tc, circuits::Backend::Spice);
    EvaluationEngine engine(tb, cfg);
    Rng rng = Rng(17).split(static_cast<std::uint64_t>(tc));
    std::vector<double> x01(tb->sizing().dimension());
    for (double& v : x01) v = rng.uniform();
    const auto x = tb->sizing().denormalize(x01);
    const auto hs = pdk::sample_mismatch_set(tb->mismatch_layout(x, op_config.global_mismatch),
                                             cfg.min_parallel_batch + 4, rng,
                                             pdk::GlobalMode::Zero);
    ASSERT_GE(hs.size(), cfg.min_parallel_batch);
    for (const pdk::PvtCorner& corner : op_config.corners) {
      const auto batch = engine.evaluate_batch(x, corner, hs);
      ASSERT_EQ(batch.size(), hs.size());
      for (std::size_t i = 0; i < hs.size(); ++i) {
        const auto direct = evaluate_direct(*tb, x, corner, hs[i]);
        EXPECT_TRUE(bit_identical({batch[i]}, {direct}))
            << circuits::to_string(tc) << " corner " << corner.name() << " draw " << i;
      }
    }
    EXPECT_EQ(engine.stats().executed, hs.size() * op_config.corners.size());
  }
}

}  // namespace
}  // namespace glova::core
