// Tests for the persistent memo cache (docs/architecture.md#persistent-memo-cache):
// the glova-memo file format (save -> load -> save byte fixed point,
// actionable rejection of truncated/garbage/version-mismatched/foreign-tag
// files), the engine's preload/flush round trip, warm-cache campaign
// determinism (a second run over a shared cache directory executes zero
// simulations and reproduces results byte-identically), and the one
// engine-state frame version.
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
  file.tag = "sample-bench|q=1e-15|adaptive=0|recovery=0"
             "|retries=0|deadline=0|degrade=0";
  file.entries.push_back({{1, -2, 3}, {0.5, -1.25}});
  file.entries.push_back({{4, 5}, {3.0}});
  file.entries.push_back({{}, {1e-300, 2e17}});
  return file;
}

TEST(MemoCacheFormat, SaveLoadSaveIsAByteFixedPoint) {
  const core::MemoCacheFile original = sample_file();
  std::ostringstream first;
  core::save_memo_cache(first, original);
  EXPECT_EQ(first.str(), "glova-memo v2\n"
                         "tag " + original.tag + "\n"
                         "entries 3\n"
                         "key 3 1 -2 3\n"
                         "val 2 0.5 -1.25\n"
                         "key 2 4 5\n"
                         "val 1 3\n"
                         "key 0\n"
                         "val 2 1e-300 2e+17\n"
                         "end\n");

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
  // v1 (the earlier layout, which also stored a serialized model) and a
  // future version both fail by version, naming the one this build reads.
  for (const std::string version : {"v1", "v999"}) {
    std::istringstream in("glova-memo " + version + "\ntag t\nentries 0\nend\n");
    try {
      (void)core::load_memo_cache(in);
      ADD_FAILURE() << "glova-memo " << version << " loaded";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("unsupported format version '" + version + "'"), std::string::npos)
          << what;
      EXPECT_NE(what.find("this build reads v2"), std::string::npos) << what;
    }
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
  // The default tag names every numerics-affecting knob, in order.
  EXPECT_EQ(core::memo_cache_tag("sal", a),
            "sal|q=1.0000000000000001e-15|adaptive=0|recovery=0|retries=0|deadline=0"
            "|degrade=0|mos=level1|noise=0");
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

TEST(EngineState, EnginesWriteTheOneStateFrameAndRejectEarlierVersions) {
  const auto tb = circuits::make_testbench(circuits::Testcase::Sal);
  core::EvaluationEngine engine(tb);
  (void)engine.evaluate_one(midpoint_design(*tb), pdk::typical_corner(), {});
  core::EvaluationEngine reload(tb);
  const std::string state = expect_state_round_trip(engine, reload);
  EXPECT_EQ(state.rfind("engine-state 5\ncounters ", 0), 0u) << state;

  // Frames of earlier builds (version 4 also carried surrogate lines) are
  // rejected by version, naming the one read.
  for (const char* old_version : {"1", "2", "3", "4"}) {
    std::istringstream in(std::string("engine-state ") + old_version +
                          state.substr(state.find('\n')));
    core::EvaluationEngine target(tb);
    try {
      target.load_state(in);
      ADD_FAILURE() << "engine-state " << old_version << " loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported engine-state version " +
                                           std::string(old_version) + " (this build reads 5)"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace glova
