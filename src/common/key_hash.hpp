// Shared helpers for flat integer cache keys: the evaluation-engine memo
// cache and its persistent shards quantize coordinates the same way and hash
// the same key shape, so the scheme lives in one place.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace glova {

/// FNV-1a over the key words; good enough for a few thousand entries.
inline std::size_t key_fnv1a(const std::vector<std::int64_t>& words) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::int64_t w : words) {
    auto u = static_cast<std::uint64_t>(w);
    for (int b = 0; b < 8; ++b) {
      h ^= (u >> (8 * b)) & 0xFFu;
      h *= 1099511628211ull;
    }
  }
  return static_cast<std::size_t>(h);
}

/// Quantize one coordinate for an exact-equality cache key.  Saturates
/// instead of invoking UB on overflow; keys only need equality.
inline std::int64_t quantize_for_key(double v, double quantum) {
  const double q = v / quantum;
  if (q >= 9.2e18) return std::numeric_limits<std::int64_t>::max();
  if (q <= -9.2e18) return std::numeric_limits<std::int64_t>::min();
  return std::llround(q);
}

}  // namespace glova
