// DC warm-start cache: converged operating points keyed by a quantized
// (testbench, MOS model, design, corner) identity, reused as Newton seeds
// across mismatch draws of the same design.
//
// Mismatch shifts device parameters by millivolts around the nominal design,
// so the nominal DC solution is usually an excellent Newton seed: warm-started
// solves converge in a fraction of the cold iteration count and skip the
// source-stepping fallback.  Simulator::operating_point falls back to the
// cold path whenever a seed fails to converge.
//
// What holds: a warm start changes only the Newton trajectory, so a DC point
// that converges from both seeds to the same solution agrees with the cold
// one to within the Newton voltage tolerance (vtol), and a deciding design's
// metrics move by no more than that.  What does not hold: the transient of a
// design that does not decide inside its window amplifies that difference.
// On non-deciding StrongARM designs at 0.8 V / -40 C corners, warm-started
// set_delay values were measured 1e-3 to 0.99 relative away from cold ones,
// and which value a draw gets depends on what its worker thread had cached
// before.  dc_warm_start = 0 is the reproducible setting: every result then
// depends only on the call's own inputs and numerics.
//
// The cache is thread-local (one per worker, adjacent to the thread's
// SimulatorWorkspace): lookups are lock-free and each evaluation thread
// warms its own cache after the first draw of a design.  Whether it is used
// at all is the installed EvalContext's dc_warm_start; hit/miss/store counts
// go to the process totals and the context's counter sink (counters.hpp).
#pragma once

#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pdk/corner.hpp"
#include "spice/counters.hpp"
#include "spice/simulator.hpp"

namespace glova::spice {

/// Small LRU cache of converged DC operating points.  Keys are flat integer
/// vectors (see make_dc_key); equality is exact.
class DcWarmStartCache {
 public:
  using Key = std::vector<std::int64_t>;

  explicit DcWarmStartCache(std::size_t capacity = 64);

  /// Returns the cached operating point, or nullptr on a miss.  The pointer
  /// stays valid until the next store() or clear() on this cache.  Counts
  /// a hit or a miss (counters.hpp).
  [[nodiscard]] const OpResult* lookup(const Key& key);

  /// Insert (or refresh) an entry; evicts least-recently-used on overflow.
  /// Only converged results are worth storing; non-converged ones are
  /// silently dropped.
  void store(const Key& key, const OpResult& op);

  void clear();
  [[nodiscard]] std::size_t size() const { return lru_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept;
  };

  std::size_t capacity_;
  /// LRU: most recent at the front.  The map points into the list.
  std::list<std::pair<Key, OpResult>> lru_;
  std::unordered_map<Key, decltype(lru_)::iterator, KeyHash> index_;
};

/// The calling thread's warm-start cache, adjacent to its
/// thread_local_workspace().
[[nodiscard]] DcWarmStartCache& thread_local_dc_cache();

/// Build a cache key from a testbench tag (distinguishes circuit topologies
/// that share a design-vector shape), the MOS model (an operating point of
/// one channel model is no seed for the other), the physical design vector,
/// and the PVT corner.  Mismatch draws are deliberately NOT part of the key:
/// all draws of one (design, corner) share the nominal seed.  Coordinates
/// are quantized like the evaluation-engine memo keys so round-trip noise
/// never splits entries.
[[nodiscard]] DcWarmStartCache::Key make_dc_key(std::uint64_t testbench_tag, MosModel model,
                                                std::span<const double> x_phys,
                                                const pdk::PvtCorner& corner,
                                                double quantum = 1e-15);

/// One transient's use of the calling thread's warm-start cache under the
/// installed EvalContext (inert while its dc_warm_start is off): the seed is
/// looked up at construction, and settle() applies the store rules once the
/// transient ran.
class WarmSeed {
 public:
  WarmSeed(std::uint64_t testbench_tag, std::span<const double> x_phys,
           const pdk::PvtCorner& corner);

  /// The Newton seed for transient(); nullptr on a miss or with warm start off.
  [[nodiscard]] const OpResult* get() const { return seed_; }

  /// Store on a cache miss, and also refresh whenever the cached seed went
  /// unused (the warm attempt failed and the cold fallback converged), so a
  /// stale entry cannot keep charging the failed-warm-attempt tax to every
  /// later draw of the design.
  void settle(const TransientResult& result) const;

 private:
  bool enabled_;
  DcWarmStartCache::Key key_;
  const OpResult* seed_ = nullptr;
};

}  // namespace glova::spice
