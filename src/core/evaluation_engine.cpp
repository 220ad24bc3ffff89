#include "core/evaluation_engine.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/key_hash.hpp"
#include "common/log.hpp"
#include "common/state_io.hpp"
#include "core/persistent_cache.hpp"

namespace glova::core {

namespace {

/// The one engine-state frame version this build writes and reads.
constexpr std::uint64_t kEngineStateVersion = 5;

/// The engine-state `carried` line opens with the three counters of the
/// removed DC warm-start cache, written as 0 and skipped on read, so the
/// frame keeps its engine-state 5 layout.
constexpr int kRetiredCarriedFields = 3;

/// EngineStats fields counted in the engine's spice::CounterSink, in the
/// order of the engine-state `carried` line (after the retired fields).
using SinkCounter = spice::CounterSink::Counter spice::CounterSink::*;
constexpr std::pair<std::uint64_t EngineStats::*, SinkCounter> kSinkFields[] = {
    {&EngineStats::steps_accepted, &spice::CounterSink::steps_accepted},
    {&EngineStats::steps_rejected, &spice::CounterSink::steps_rejected},
    {&EngineStats::recovered_dc, &spice::CounterSink::recovered_dc},
    {&EngineStats::recovered_transient, &spice::CounterSink::recovered_transient},
    {&EngineStats::deadline_aborts, &spice::CounterSink::deadline_aborts},
};

}  // namespace

std::size_t EvaluationEngine::CacheKeyHash::operator()(const CacheKey& key) const noexcept {
  return key_fnv1a(key);
}

EvaluationEngine::EvaluationEngine(circuits::TestbenchPtr testbench, EngineConfig config)
    : testbench_(std::move(testbench)), config_(config) {
  if (!testbench_) throw std::invalid_argument("EvaluationEngine: null testbench");
  if (config_.cache_quantum <= 0.0) {
    throw std::invalid_argument("EvaluationEngine: cache_quantum must be positive");
  }
  if (config_.parallelism > 0) {
    slots_ = std::make_unique<std::counting_semaphore<>>(
        static_cast<std::ptrdiff_t>(config_.parallelism));
  }
  if (config_.max_eval_retries < 0) {
    throw std::invalid_argument("EvaluationEngine: max_eval_retries must be >= 0");
  }
  if (config_.dc_warm_start) {
    throw std::invalid_argument(
        "EvaluationEngine: dc_warm_start must be false (DC warm start was removed)");
  }
  for (const char c : config_.cache_path) {
    // The RunSpec grammar is space-separated; a path that cannot round-trip
    // through it is rejected up front rather than corrupting a checkpoint.
    if (std::isspace(static_cast<unsigned char>(c))) {
      throw std::invalid_argument("EvaluationEngine: cache_path must not contain whitespace");
    }
  }
  if (config_.mos_model != "level1" && config_.mos_model != "ekv") {
    throw std::invalid_argument("EvaluationEngine: mos_model must be 'level1' or 'ekv'");
  }
  spice::SimulatorOptions& options = context_.options;
  options.mos_model = config_.mos_model == "ekv" ? spice::MosModel::kEkv : spice::MosModel::kLevel1;
  options.adaptive_timestep = config_.adaptive_timestep;
  options.recovery.enabled = config_.recovery;
  options.deadline_newton_iterations = config_.eval_deadline_steps;
  context_.noise_analysis = config_.spice_noise;
  context_.sink = &sink_;
  load_persistent_cache();
}

std::vector<double> EvaluationEngine::evaluate_guarded(std::span<const double> x_phys,
                                                       const pdk::PvtCorner& corner,
                                                       std::span<const double> h) {
  const spice::ScopedEvalContext scope(context_);
  std::vector<double> penalty;
  try {
    return testbench_->evaluate(x_phys, corner, h);
  } catch (const circuits::EvaluationError& e) {
    penalty = e.penalty_metrics();
  }
  // Escalated retries: each attempt runs under a copy of the context with
  // the ladder enabled (level 1) and then taller/deeper (level >= 2); the
  // copy is uninstalled when the attempt's scope ends.
  for (int attempt = 1; attempt <= config_.max_eval_retries; ++attempt) {
    retries_.fetch_add(1);
    spice::EvalContext escalated = context_;
    escalated.options = spice::escalate_recovery(context_.options, attempt);
    const spice::ScopedEvalContext retry_scope(escalated);
    try {
      return testbench_->evaluate(x_phys, corner, h);
    } catch (const circuits::EvaluationError&) {
      // Next attempt escalates further.
    }
  }
  if (config_.degrade_to_behavioral) {
    if (const circuits::Testbench* fallback = testbench_->degraded_fallback()) {
      degraded_evals_.fetch_add(1);
      return fallback->evaluate(x_phys, corner, h);
    }
  }
  // With no retries and no degradation this is the backend's legacy penalty
  // metrics — bit-identical to the pre-funnel behavior.
  return penalty;
}

std::vector<double> EvaluationEngine::evaluate_with_slot(std::span<const double> x_phys,
                                                         const pdk::PvtCorner& corner,
                                                         std::span<const double> h) {
  if (!slots_) return evaluate_guarded(x_phys, corner, h);
  slots_->acquire();
  try {
    std::vector<double> metrics = evaluate_guarded(x_phys, corner, h);
    slots_->release();
    return metrics;
  } catch (...) {
    slots_->release();
    throw;
  }
}

EvaluationEngine::~EvaluationEngine() {
  std::vector<std::future<void>> pending;
  {
    const std::lock_guard<std::mutex> lock(pending_mutex_);
    pending.swap(pending_);
  }
  for (std::future<void>& f : pending) {
    if (f.valid()) f.wait();
  }
  if (!config_.cache_path.empty()) {
    try {
      flush_persistent_cache();
    } catch (const std::exception& e) {
      log_warn("EvaluationEngine: persistent cache flush failed: ", e.what());
    }
  }
}

std::string EvaluationEngine::persistent_cache_tag() const {
  return memo_cache_tag(testbench_->name(), config_);
}

void EvaluationEngine::load_persistent_cache() {
  if (config_.cache_path.empty() || config_.cache_capacity == 0) return;
  const std::optional<MemoCacheFile> file =
      load_memo_cache_file(config_.cache_path, persistent_cache_tag());
  if (!file) return;  // first run against this path
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  // Entries are stored most recent first; preserve that recency in the LRU
  // and stop at capacity (the file may hold more than one engine's worth).
  for (const MemoCacheEntry& e : file->entries) {
    if (lru_.size() >= config_.cache_capacity) break;
    if (index_.find(e.key) != index_.end()) continue;
    lru_.emplace_back(e.key, e.metrics);
    index_.emplace(lru_.back().first, std::prev(lru_.end()));
  }
}

void EvaluationEngine::flush_persistent_cache() {
  if (config_.cache_path.empty() || config_.cache_capacity == 0) return;
  MemoCacheFile file;
  file.tag = persistent_cache_tag();
  {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    file.entries.reserve(lru_.size());
    for (const auto& [key, metrics] : lru_) file.entries.push_back({key, metrics});
  }
  flush_memo_cache_file(config_.cache_path, file);
}

EvaluationEngine::CacheKey EvaluationEngine::make_key(std::span<const double> x_phys,
                                                      const pdk::PvtCorner& corner,
                                                      std::span<const double> h) const {
  CacheKey key;
  key.reserve(4 + x_phys.size() + 1 + h.size());
  key.push_back(static_cast<std::int64_t>(corner.process) * 2 +
                (corner.process_predefined ? 1 : 0));
  key.push_back(quantize_for_key(corner.vdd, config_.cache_quantum));
  key.push_back(quantize_for_key(corner.temp_c, config_.cache_quantum));
  key.push_back(static_cast<std::int64_t>(x_phys.size()));
  for (const double v : x_phys) key.push_back(quantize_for_key(v, config_.cache_quantum));
  key.push_back(static_cast<std::int64_t>(h.size()));
  for (const double v : h) key.push_back(quantize_for_key(v, config_.cache_quantum));
  return key;
}

bool EvaluationEngine::cache_lookup(const CacheKey& key, std::vector<double>& out) {
  if (config_.cache_capacity == 0) return false;
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) return false;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  out = it->second->second;
  return true;
}

void EvaluationEngine::cache_insert(CacheKey key, const std::vector<double>& metrics) {
  if (config_.cache_capacity == 0) return;
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  if (index_.find(key) != index_.end()) return;  // concurrent duplicate compute
  lru_.emplace_front(std::move(key), metrics);
  index_.emplace(lru_.front().first, lru_.begin());
  if (lru_.size() > config_.cache_capacity) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

std::size_t EvaluationEngine::effective_parallelism() const {
  const std::size_t pool = global_thread_pool().size();
  if (config_.parallelism == 0) return pool;
  return std::min(config_.parallelism, pool);
}

std::vector<std::vector<double>> EvaluationEngine::evaluate_batch(
    std::span<const double> x_phys, const pdk::PvtCorner& corner,
    const std::vector<std::vector<double>>& hs) {
  std::vector<std::vector<double>> results(hs.size());
  requested_.fetch_add(hs.size());

  // Resolve cache hits up front; only misses go to the simulator.  Identical
  // conditions inside one batch are still evaluated once each requested time
  // until the first insert lands — correctness is unaffected, and in practice
  // duplicate keys within a batch are repeated nominal-mismatch draws.
  const bool caching = config_.cache_capacity != 0;
  std::vector<std::size_t> miss_indices;
  std::vector<CacheKey> miss_keys;
  miss_indices.reserve(hs.size());
  if (caching) {
    miss_keys.reserve(hs.size());
    for (std::size_t i = 0; i < hs.size(); ++i) {
      CacheKey key = make_key(x_phys, corner, hs[i]);
      if (cache_lookup(key, results[i])) {
        cache_hits_.fetch_add(1);
      } else {
        miss_indices.push_back(i);
        miss_keys.push_back(std::move(key));
      }
    }
  } else {
    for (std::size_t i = 0; i < hs.size(); ++i) miss_indices.push_back(i);
  }
  if (miss_indices.empty()) return results;

  const auto run_one = [&](std::size_t mi) {
    const std::size_t i = miss_indices[mi];
    results[i] = evaluate_with_slot(x_phys, corner, hs[i]);
    // Counted after the run so a throwing evaluation keeps the invariant
    // requested == cache_hits + executed (+ failures, which propagate).
    executed_.fetch_add(1);
    if (caching) cache_insert(std::move(miss_keys[mi]), results[i]);
  };

  const std::size_t parallelism = effective_parallelism();
  if (parallelism > 1 && miss_indices.size() >= config_.min_parallel_batch) {
    global_thread_pool().parallel_for(miss_indices.size(), run_one, parallelism);
  } else {
    for (std::size_t mi = 0; mi < miss_indices.size(); ++mi) run_one(mi);
  }
  return results;
}

std::vector<double> EvaluationEngine::evaluate_one(std::span<const double> x_phys,
                                                   const pdk::PvtCorner& corner,
                                                   std::span<const double> h) {
  requested_.fetch_add(1);
  const bool caching = config_.cache_capacity != 0;
  CacheKey key;
  std::vector<double> metrics;
  if (caching) {
    key = make_key(x_phys, corner, h);
    if (cache_lookup(key, metrics)) {
      cache_hits_.fetch_add(1);
      return metrics;
    }
  }
  metrics = evaluate_with_slot(x_phys, corner, h);
  executed_.fetch_add(1);
  if (caching) cache_insert(std::move(key), metrics);
  return metrics;
}

std::future<std::vector<double>> EvaluationEngine::submit(std::span<const double> x_phys,
                                                          const pdk::PvtCorner& corner,
                                                          std::span<const double> h) {
  requested_.fetch_add(1);
  const bool caching = config_.cache_capacity != 0;
  CacheKey key;
  std::vector<double> metrics;
  if (caching) {
    key = make_key(x_phys, corner, h);
    if (cache_lookup(key, metrics)) {
      cache_hits_.fetch_add(1);
      std::promise<std::vector<double>> ready;
      ready.set_value(std::move(metrics));
      return ready.get_future();
    }
  }
  // The task owns copies of its inputs: the caller's spans need not outlive
  // the future.
  auto state = std::make_shared<std::promise<std::vector<double>>>();
  std::future<std::vector<double>> fut = state->get_future();
  std::vector<double> x_copy(x_phys.begin(), x_phys.end());
  std::vector<double> h_copy(h.begin(), h.end());
  std::future<void> done = global_thread_pool().submit(
      [this, state, caching, key = std::move(key), corner, x = std::move(x_copy),
       hh = std::move(h_copy)] {
        try {
          std::vector<double> m = evaluate_with_slot(x, corner, hh);
          executed_.fetch_add(1);
          if (caching) cache_insert(key, m);
          state->set_value(std::move(m));
        } catch (...) {
          state->set_exception(std::current_exception());
        }
      });
  {
    // Track the queued task so the destructor can drain it; drop entries
    // that have already finished to keep the list from growing.
    const std::lock_guard<std::mutex> lock(pending_mutex_);
    std::erase_if(pending_, [](std::future<void>& f) {
      return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
    });
    pending_.push_back(std::move(done));
  }
  return fut;
}

EngineStats EvaluationEngine::stats() const {
  EngineStats s;
  s.requested = requested_.load();
  s.executed = executed_.load();
  s.cache_hits = cache_hits_.load();
  for (const auto& [stat, counter] : kSinkFields) s.*stat = (sink_.*counter).load();
  s.retries = retries_.load();
  s.degraded_evals = degraded_evals_.load();
  return s;
}

void EvaluationEngine::reset_count() {
  requested_.store(0);
  executed_.store(0);
  cache_hits_.store(0);
  retries_.store(0);
  degraded_evals_.store(0);
  for (const auto& field : kSinkFields) (sink_.*field.second).store(0);
}

std::size_t EvaluationEngine::cache_size() const {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  return lru_.size();
}

void EvaluationEngine::clear_cache() {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  index_.clear();
  lru_.clear();
}

void EvaluationEngine::save_state(std::ostream& os) const {
  os << "engine-state " << kEngineStateVersion << '\n';
  os << "counters " << requested_.load() << ' ' << executed_.load() << ' ' << cache_hits_.load()
     << ' ' << retries_.load() << ' ' << degraded_evals_.load() << '\n';
  os << "carried";
  for (int i = 0; i < kRetiredCarriedFields; ++i) os << " 0";
  for (const auto& field : kSinkFields) os << ' ' << (sink_.*field.second).load();
  os << '\n';
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  os << "cache " << lru_.size() << '\n';
  // Front (most recent) first; load() rebuilds in the same order.
  for (const auto& [key, metrics] : lru_) {
    os << "key " << key.size();
    for (const std::int64_t k : key) os << ' ' << k;
    os << '\n';
    state::write_doubles(os, "val", metrics);
  }
}

void EvaluationEngine::load_state(std::istream& is) {
  const std::uint64_t version =
      state::parse_u64(state::expect_line(is, "engine-state"), "engine-state version");
  if (version != kEngineStateVersion) {
    state::bad("unsupported engine-state version " + std::to_string(version) +
               " (this build reads " + std::to_string(kEngineStateVersion) + ")");
  }
  {
    std::istringstream line(state::expect_line(is, "counters"));
    std::uint64_t requested = 0, executed = 0, cache_hits = 0, retries = 0, degraded = 0;
    if (!(line >> requested >> executed >> cache_hits >> retries >> degraded)) {
      state::bad("malformed engine counters");
    }
    requested_.store(requested);
    executed_.store(executed);
    cache_hits_.store(cache_hits);
    retries_.store(retries);
    degraded_evals_.store(degraded);
  }
  {
    std::istringstream line(state::expect_line(is, "carried"));
    EngineStats c;
    std::uint64_t retired = 0;
    for (int i = 0; i < kRetiredCarriedFields; ++i) {
      if (!(line >> retired)) state::bad("malformed engine carried counters");
    }
    for (const auto& field : kSinkFields) {
      if (!(line >> c.*field.first)) state::bad("malformed engine carried counters");
    }
    for (const auto& [stat, counter] : kSinkFields) (sink_.*counter).store(c.*stat);
  }
  const std::size_t n = state::parse_u64(state::expect_line(is, "cache"), "engine cache size");
  if (n > config_.cache_capacity) {
    state::bad("engine cache state holds " + std::to_string(n) + " entries, capacity is " +
               std::to_string(config_.cache_capacity));
  }
  decltype(lru_) lru;
  decltype(index_) index;
  for (std::size_t i = 0; i < n; ++i) {
    std::istringstream line(state::expect_line(is, "key"));
    std::size_t klen = 0;
    if (!(line >> klen)) state::bad("malformed engine cache key");
    if (klen > state::kMaxCount) state::bad("implausible engine cache key length");
    CacheKey key(klen);
    for (std::int64_t& k : key) {
      if (!(line >> k)) state::bad("truncated engine cache key");
    }
    std::vector<double> metrics = state::read_doubles(is, "val");
    lru.emplace_back(std::move(key), std::move(metrics));
    if (!index.emplace(lru.back().first, std::prev(lru.end())).second) {
      state::bad("duplicate engine cache key");
    }
  }
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  lru_ = std::move(lru);
  index_ = std::move(index);
}

}  // namespace glova::core
