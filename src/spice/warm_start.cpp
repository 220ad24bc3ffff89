#include "spice/warm_start.hpp"

#include "common/key_hash.hpp"

namespace glova::spice {

std::size_t DcWarmStartCache::KeyHash::operator()(const Key& key) const noexcept {
  return key_fnv1a(key);
}

DcWarmStartCache::DcWarmStartCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

const OpResult* DcWarmStartCache::lookup(const Key& key) {
  const auto it = index_.find(key);
  if (it == index_.end()) {
    count(&CounterSink::warm_misses);
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  count(&CounterSink::warm_hits);
  return &it->second->second;
}

void DcWarmStartCache::store(const Key& key, const OpResult& op) {
  if (!op.converged) return;
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = op;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, op);
  index_.emplace(lru_.front().first, lru_.begin());
  count(&CounterSink::warm_stores);
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

void DcWarmStartCache::clear() {
  index_.clear();
  lru_.clear();
}

DcWarmStartCache& thread_local_dc_cache() {
  thread_local DcWarmStartCache cache;
  return cache;
}

DcWarmStartCache::Key make_dc_key(std::uint64_t testbench_tag, MosModel model,
                                  std::span<const double> x_phys, const pdk::PvtCorner& corner,
                                  double quantum) {
  DcWarmStartCache::Key key;
  key.reserve(6 + x_phys.size());
  key.push_back(static_cast<std::int64_t>(testbench_tag));
  key.push_back(static_cast<std::int64_t>(model));
  key.push_back(static_cast<std::int64_t>(corner.process) * 2 +
                (corner.process_predefined ? 1 : 0));
  key.push_back(quantize_for_key(corner.vdd, quantum));
  key.push_back(quantize_for_key(corner.temp_c, quantum));
  key.push_back(static_cast<std::int64_t>(x_phys.size()));
  for (const double v : x_phys) key.push_back(quantize_for_key(v, quantum));
  return key;
}

WarmSeed::WarmSeed(std::uint64_t testbench_tag, std::span<const double> x_phys,
                   const pdk::PvtCorner& corner)
    : enabled_(current_context().dc_warm_start) {
  if (!enabled_) return;
  key_ = make_dc_key(testbench_tag, current_context().options.mos_model, x_phys, corner);
  seed_ = thread_local_dc_cache().lookup(key_);
}

void WarmSeed::settle(const TransientResult& result) const {
  if (enabled_ && result.ok && (seed_ == nullptr || !result.dc_op.warm_started)) {
    thread_local_dc_cache().store(key_, result.dc_op);
  }
}

}  // namespace glova::spice
