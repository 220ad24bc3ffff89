// Tests for the persistent memo cache and surrogate-guided speculative
// evaluation (docs/architecture.md#speculative-evaluation): the glova-memo
// file format (save -> load -> save byte fixed point, actionable rejection of
// truncated/garbage/version-mismatched/foreign-tag files), the engine's
// preload/flush round trip, warm-cache campaign determinism (a second run
// over a shared cache directory executes zero simulations and reproduces
// results byte-identically), and the surrogate funnel counters.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "circuits/registry.hpp"
#include "core/campaign.hpp"
#include "core/evaluation_engine.hpp"
#include "core/optimizer_base.hpp"
#include "core/persistent_cache.hpp"
#include "pdk/variation.hpp"

namespace glova {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

core::MemoCacheFile sample_file() {
  core::MemoCacheFile file;
  file.tag = "sample-bench|q=1e-15|warm=1|adaptive=0|recovery=0"
             "|retries=0|deadline=0|degrade=0";
  file.entries.push_back({{1, -2, 3}, {0.5, -1.25}});
  file.entries.push_back({{4, 5}, {3.0}});
  file.entries.push_back({{}, {1e-300, 2e17}});
  file.surrogate_state = "opaque line one\nopaque line two\n";
  return file;
}

TEST(MemoCacheFormat, SaveLoadSaveIsAByteFixedPoint) {
  const core::MemoCacheFile original = sample_file();
  std::ostringstream first;
  core::save_memo_cache(first, original);

  std::istringstream in(first.str());
  const core::MemoCacheFile loaded = core::load_memo_cache(in, original.tag);
  EXPECT_EQ(loaded, original);

  std::ostringstream second;
  core::save_memo_cache(second, loaded);
  EXPECT_EQ(second.str(), first.str());
}

TEST(MemoCacheFormat, EmptyAndGarbageInputsAreRejectedWithContext) {
  {
    std::istringstream in("");
    try {
      (void)core::load_memo_cache(in);
      FAIL() << "empty input must be rejected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("empty input"), std::string::npos) << e.what();
    }
  }
  {
    std::istringstream in("this is not a cache file\n");
    try {
      (void)core::load_memo_cache(in);
      FAIL() << "garbage magic must be rejected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("not a memo-cache file"), std::string::npos)
          << e.what();
    }
  }
}

TEST(MemoCacheFormat, UnsupportedVersionIsRejected) {
  std::istringstream in("glova-memo v999\ntag t\nentries 0\nsurrogate-lines 0\nend\n");
  try {
    (void)core::load_memo_cache(in);
    FAIL() << "future version must be rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unsupported format version 'v999'"), std::string::npos) << what;
    EXPECT_NE(what.find("this build reads v1"), std::string::npos) << what;
  }
}

TEST(MemoCacheFormat, ForeignTagIsRejectedWithActionableMessage) {
  std::ostringstream saved;
  core::save_memo_cache(saved, sample_file());
  std::istringstream in(saved.str());
  try {
    (void)core::load_memo_cache(in, "another-bench|q=1e-15");
    FAIL() << "foreign tag must be rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tag mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("delete the file or point cache_path elsewhere"), std::string::npos)
        << what;
  }
}

TEST(MemoCacheFormat, TruncatedFilesAreRejected) {
  std::ostringstream saved;
  core::save_memo_cache(saved, sample_file());
  const std::string full = saved.str();
  // Cutting the file anywhere must fail loudly, never return partial data.
  for (const double fraction : {0.2, 0.5, 0.9}) {
    const std::string cut = full.substr(0, static_cast<std::size_t>(full.size() * fraction));
    std::istringstream in(cut);
    EXPECT_THROW((void)core::load_memo_cache(in, sample_file().tag), std::runtime_error)
        << "accepted a file truncated to " << fraction;
  }
  // A malformed metric line inside an entry names the entry.
  std::string corrupt = full;
  const std::size_t val = corrupt.find("val 1 3");
  ASSERT_NE(val, std::string::npos);
  corrupt.replace(val, 7, "val 1 x");
  std::istringstream in(corrupt);
  try {
    (void)core::load_memo_cache(in, sample_file().tag);
    FAIL() << "corrupt metrics must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad metrics in entry 1"), std::string::npos)
        << e.what();
  }
}

TEST(MemoCacheFormat, MissingFileIsNotAnErrorButUnreadableIs) {
  const std::string dir = fresh_dir("glova_memo_missing");
  EXPECT_FALSE(core::load_memo_cache_file(dir + "/absent.memo", "t").has_value());
  // A present-but-garbage file throws, and the message names the path.
  const std::string path = dir + "/garbage.memo";
  std::ofstream(path) << "not a cache\n";
  try {
    (void)core::load_memo_cache_file(path, "t");
    FAIL() << "garbage file must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
}

TEST(MemoCacheFormat, FileNameShardsByConfigAndSanitizesTheName) {
  core::EngineConfig a;
  const std::string name_a = core::memo_cache_file_name("my bench/v2", a);
  // Non-alphanumerics in the testbench name never reach the filesystem.
  EXPECT_EQ(name_a.find('/'), std::string::npos);
  EXPECT_EQ(name_a.find(' '), std::string::npos);
  EXPECT_NE(name_a.find(".memo"), std::string::npos);
  // A different numerics config shards to a different file, so two engines
  // with incompatible settings sharing one cache_dir never collide.
  core::EngineConfig b = a;
  b.cache_quantum = 1e-9;
  EXPECT_NE(core::memo_cache_file_name("my bench/v2", b), name_a);
  EXPECT_NE(core::memo_cache_tag("my bench/v2", b), core::memo_cache_tag("my bench/v2", a));
}

std::vector<double> midpoint_design(const circuits::Testbench& tb) {
  std::vector<double> x01(tb.sizing().dimension(), 0.5);
  return tb.sizing().denormalize(x01);
}

TEST(PersistentCache, EngineFlushesOnDestructionAndPreloadsOnConstruction) {
  const std::string dir = fresh_dir("glova_memo_engine");
  core::EngineConfig cfg;
  cfg.cache_path = dir + "/sal.memo";

  std::vector<std::vector<double>> hs;
  std::vector<std::vector<double>> first;
  {
    core::EvaluationEngine engine(circuits::make_testbench(circuits::Testcase::Sal), cfg);
    const auto x = midpoint_design(engine.testbench());
    const auto layout = engine.testbench().mismatch_layout(x, false);
    Rng rng(5);
    hs = pdk::sample_mismatch_set(layout, 6, rng, pdk::GlobalMode::Zero);
    first = engine.evaluate_batch(x, pdk::typical_corner(), hs);
    EXPECT_EQ(engine.stats().executed, 6u);
  }  // destructor flushes
  ASSERT_TRUE(std::filesystem::exists(cfg.cache_path));

  core::EvaluationEngine warm(circuits::make_testbench(circuits::Testcase::Sal), cfg);
  EXPECT_EQ(warm.cache_size(), 6u);
  const auto x = midpoint_design(warm.testbench());
  const auto again = warm.evaluate_batch(x, pdk::typical_corner(), hs);
  EXPECT_EQ(again, first);  // bit-identical, served from disk
  EXPECT_EQ(warm.stats().executed, 0u);
  EXPECT_EQ(warm.stats().cache_hits, 6u);
}

TEST(PersistentCache, FlushMergesWithEntriesAlreadyOnDisk) {
  const std::string dir = fresh_dir("glova_memo_merge");
  core::EngineConfig cfg;
  cfg.cache_path = dir + "/sal.memo";
  const auto tb = circuits::make_testbench(circuits::Testcase::Sal);
  const auto x = midpoint_design(*tb);
  const auto corners = pdk::full_corner_set();

  {
    core::EvaluationEngine a(tb, cfg);
    (void)a.evaluate_one(x, corners[0], {});
  }
  {
    // B never saw A's entry (fresh process simulation): its flush must merge,
    // not overwrite.
    core::EvaluationEngine b(tb, cfg);
    b.clear_cache();
    (void)b.evaluate_one(x, corners[1], {});
  }
  core::EvaluationEngine c(tb, cfg);
  (void)c.evaluate_one(x, corners[0], {});
  (void)c.evaluate_one(x, corners[1], {});
  EXPECT_EQ(c.stats().executed, 0u);
  EXPECT_EQ(c.stats().cache_hits, 2u);
}

TEST(PersistentCache, TagMismatchAtEngineConstructionThrows) {
  const std::string dir = fresh_dir("glova_memo_tagclash");
  core::EngineConfig cfg;
  cfg.cache_path = dir + "/shared.memo";
  {
    core::EvaluationEngine engine(circuits::make_testbench(circuits::Testcase::Sal), cfg);
    (void)engine.evaluate_one(midpoint_design(engine.testbench()), pdk::typical_corner(), {});
  }
  // Same file, different numerics config: the tag no longer matches and the
  // stale results must not be served.
  core::EngineConfig other = cfg;
  other.cache_quantum = 1e-9;
  EXPECT_THROW(
      core::EvaluationEngine(circuits::make_testbench(circuits::Testcase::Sal), other),
      std::runtime_error);
}

/// One small campaign cell (SAL behavioral, corner verification).
core::SweepSpec small_sweep(const std::string&) {
  core::SweepSpec sweep;
  sweep.base.testcase = circuits::Testcase::Sal;
  sweep.base.method = core::VerifMethod::C;
  sweep.base.max_iterations = 80;
  sweep.base.engine.cache_capacity = 65536;  // hold every executed point
  sweep.seeds = {1};
  return sweep;
}

TEST(PersistentCache, WarmCampaignRerunExecutesZeroAndIsBitIdentical) {
  const std::string dir = fresh_dir("glova_memo_campaign");
  core::CampaignConfig config;
  config.cache_dir = dir;

  core::Campaign cold(small_sweep(dir), config);
  const core::CampaignResult first = cold.run();
  ASSERT_EQ(first.entries.size(), 1u);
  EXPECT_GT(first.entries[0].result.engine_stats.executed, 0u);

  // Same sweep, fresh campaign, same cache directory: every simulation the
  // deterministic rerun requests was already recorded, so nothing executes.
  core::Campaign warm(small_sweep(dir), config);
  const core::CampaignResult second = warm.run();
  ASSERT_EQ(second.entries.size(), 1u);
  EXPECT_EQ(second.entries[0].result.engine_stats.executed, 0u)
      << "warm rerun must be answered entirely from the persistent cache";
  EXPECT_GT(second.entries[0].result.engine_stats.cache_hits, 0u);

  // Byte-identical results (wall time is the one timing-dependent field).
  const auto canonical = [](core::GlovaResult r) {
    r.wall_seconds = 0.0;
    std::ostringstream os;
    core::write_glova_result(os, r);
    return os.str();
  };
  core::GlovaResult a = first.entries[0].result;
  core::GlovaResult b = second.entries[0].result;
  // The funnel split differs by construction (that is the feature); the
  // result payload must not.
  EXPECT_EQ(a.n_simulations, b.n_simulations);
  a.n_simulations_executed = b.n_simulations_executed = 0;
  a.n_cache_hits = b.n_cache_hits = 0;
  a.engine_stats = b.engine_stats = core::EngineStats{};
  EXPECT_EQ(canonical(a), canonical(b));
}

/// Cheap 3-mismatch testbench for surrogate funnel tests.
class PlaneBench final : public circuits::Testbench {
 public:
  PlaneBench() {
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
  [[nodiscard]] std::vector<double> evaluate(std::span<const double> x, const pdk::PvtCorner&,
                                             std::span<const double> h) const override {
    double sum = x.empty() ? 0.0 : x[0];
    for (std::size_t j = 0; j < h.size(); ++j) sum += (static_cast<double>(j) + 1.0) * h[j];
    return {sum};
  }

 private:
  std::string name_ = "plane-bench";
  circuits::SizingSpec sizing_;
  circuits::PerformanceSpec performance_;
};

std::vector<std::vector<double>> random_draws(Rng& rng, int count) {
  std::vector<std::vector<double>> hs;
  for (int i = 0; i < count; ++i) {
    hs.push_back({rng.normal(), rng.normal(), rng.normal()});
  }
  return hs;
}

TEST(Surrogate, FunnelCountersObeyTheExtendedInvariant) {
  core::EngineConfig cfg;
  cfg.surrogate = true;
  cfg.surrogate_warmup = 8;
  cfg.surrogate_keep = 0.5;
  cfg.parallelism = 1;
  core::EvaluationEngine engine(std::make_shared<PlaneBench>(), cfg);
  const std::vector<double> x = {0.5};
  Rng rng(17);

  // Warmup batch trains the model; the second batch gets pre-ranked and the
  // unremarkable half answered speculatively.
  (void)engine.evaluate_batch(x, pdk::typical_corner(), random_draws(rng, 16));
  core::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.surrogate_prunes, 0u);  // not ready during warmup
  EXPECT_EQ(stats.executed, 16u);
  EXPECT_GT(stats.surrogate_train_steps, 0u);

  (void)engine.evaluate_batch(x, pdk::typical_corner(), random_draws(rng, 16));
  stats = engine.stats();
  EXPECT_EQ(stats.surrogate_prunes, 8u);  // keep=0.5 of 16 misses
  EXPECT_EQ(stats.surrogate_confirms, 8u);
  EXPECT_EQ(stats.requested, stats.cache_hits + stats.executed + stats.surrogate_prunes);
  EXPECT_EQ(stats.executed, 24u);
}

/// save_state() of `engine`, loaded into `fresh` and saved again: the two
/// texts must match byte for byte.
std::string expect_state_round_trip(const core::EvaluationEngine& engine,
                                    core::EvaluationEngine& fresh) {
  std::ostringstream saved;
  engine.save_state(saved);
  std::istringstream in(saved.str());
  fresh.load_state(in);
  std::ostringstream resaved;
  fresh.save_state(resaved);
  EXPECT_EQ(resaved.str(), saved.str());
  return saved.str();
}

TEST(Surrogate, OnAndOffEnginesWriteTheOneStateFrame) {
  const auto tb = circuits::make_testbench(circuits::Testcase::Sal);
  core::EvaluationEngine off(tb);
  (void)off.evaluate_one(midpoint_design(*tb), pdk::typical_corner(), {});
  core::EvaluationEngine off_reload(tb);
  const std::string state_off = expect_state_round_trip(off, off_reload);
  EXPECT_EQ(state_off.rfind("engine-state 4\n", 0), 0u);
  EXPECT_NE(state_off.find("\nsurrogate-counters 0 0\nsurrogate-model 0\n"), std::string::npos)
      << state_off;

  core::EngineConfig cfg;
  cfg.surrogate = true;
  cfg.surrogate_warmup = 8;
  cfg.parallelism = 1;
  core::EvaluationEngine on(std::make_shared<PlaneBench>(), cfg);
  const std::vector<double> x = {0.5};
  Rng rng(31);
  (void)on.evaluate_batch(x, pdk::typical_corner(), random_draws(rng, 12));
  ASSERT_GT(on.stats().surrogate_train_steps, 0u);
  core::EvaluationEngine on_reload(std::make_shared<PlaneBench>(), cfg);
  const std::string state_on = expect_state_round_trip(on, on_reload);
  EXPECT_EQ(state_on.rfind("engine-state 4\n", 0), 0u);
  EXPECT_NE(state_on.find("\nsurrogate-model 1\n"), std::string::npos);

  // Frames of earlier builds are rejected by version, naming the one read.
  for (const char* old_version : {"1", "2", "3"}) {
    std::istringstream in(std::string("engine-state ") + old_version +
                          state_off.substr(state_off.find('\n')));
    core::EvaluationEngine target(tb);
    try {
      target.load_state(in);
      ADD_FAILURE() << "engine-state " << old_version << " loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported engine-state version " +
                                           std::string(old_version) + " (this build reads 4)"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Surrogate, ModelStateRidesInTheMemoCacheFile) {
  const std::string dir = fresh_dir("glova_memo_surrogate");
  core::EngineConfig cfg;
  cfg.cache_path = dir + "/plane.memo";
  cfg.surrogate = true;
  cfg.surrogate_warmup = 8;
  cfg.parallelism = 1;
  Rng rng(29);
  const std::vector<double> x = {0.5};
  {
    core::EvaluationEngine engine(std::make_shared<PlaneBench>(), cfg);
    (void)engine.evaluate_batch(x, pdk::typical_corner(), random_draws(rng, 12));
    EXPECT_GT(engine.stats().surrogate_train_steps, 0u);
  }
  core::EvaluationEngine warm(std::make_shared<PlaneBench>(), cfg);
  EXPECT_GT(warm.stats().surrogate_train_steps, 0u)
      << "the trained model must be restored from the cache file";
  EXPECT_EQ(warm.cache_size(), 12u);
}

}  // namespace
}  // namespace glova
