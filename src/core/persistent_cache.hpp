// Persistent cross-session memo cache for core::EvaluationEngine.
//
// One file holds the memoized (quantized design, corner, mismatch) -> metrics
// entries of one evaluation configuration, identified by a *tag* — the
// testbench name plus every numerics-affecting EngineConfig knob — so a cache
// written under one simulation truth can never be replayed under another.
// The format is versioned, line-oriented text built from the same
// common/state_io.hpp primitives as campaign checkpoints, written through the
// crash-safe atomic-rename path, and append-friendly: flushing merges the
// engine's live LRU with whatever is already on disk instead of truncating
// it, so the file accumulates observations across sessions, campaigns, and
// glova-serve restarts.
//
//   glova-memo v2
//   tag <testbench|numerics-config>
//   entries N
//   key K k0 ... kK-1          (N times: quantized engine cache key)
//   val M v0 ... vM-1          (metrics, doubles via max_digits10)
//   end
//
// This build reads v2 only; a file of any other version is rejected by it.
// Malformed input — wrong magic, unsupported version, a tag belonging to a
// different configuration, truncation, garbage fields — fails loudly with an
// actionable std::runtime_error; tests/test_persistent_cache.cpp pins both
// the byte format (save -> load -> save fixed point) and the rejections.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/evaluation_engine.hpp"

namespace glova::core {

/// One memoized evaluation: the engine's flat quantized cache key and the
/// metric vector it resolved to.
struct MemoCacheEntry {
  std::vector<std::int64_t> key;
  std::vector<double> metrics;

  friend bool operator==(const MemoCacheEntry&, const MemoCacheEntry&) = default;
};

/// In-memory image of one on-disk memo-cache file.
struct MemoCacheFile {
  std::string tag;                      ///< memo_cache_tag() of the writer
  std::vector<MemoCacheEntry> entries;  ///< most recently used first

  friend bool operator==(const MemoCacheFile&, const MemoCacheFile&) = default;
};

inline constexpr int kMemoCacheFormatVersion = 2;
/// Bound on entries per file: flushes keep the most recent entries first and
/// drop the tail beyond this, so a long-lived shared cache file cannot grow
/// without limit (entries are a few hundred bytes each).
inline constexpr std::size_t kMaxMemoCacheEntries = 262'144;

/// The (testcase, backend, numerics-config) identity of a cache file: the
/// testbench name plus every EngineConfig knob that changes either the key
/// geometry (cache_quantum) or the metric values a simulation produces.
/// Engines refuse to load a file whose tag differs from their own.
[[nodiscard]] std::string memo_cache_tag(const std::string& testbench_name,
                                         const EngineConfig& engine);

/// Stable per-tag file name ("<sanitized-testbench>-<tag-hash>.memo") used by
/// CampaignConfig::cache_dir to shard one directory by configuration, so
/// sessions with different numerics knobs never collide on one file.
[[nodiscard]] std::string memo_cache_file_name(const std::string& testbench_name,
                                               const EngineConfig& engine);

void save_memo_cache(std::ostream& os, const MemoCacheFile& file);

/// Parse one cache file.  When `expected_tag` is non-empty, a file carrying
/// any other tag is rejected.  Throws std::runtime_error with an actionable
/// message on malformed input.
[[nodiscard]] MemoCacheFile load_memo_cache(std::istream& is,
                                            const std::string& expected_tag = {});

/// load_memo_cache from a file; nullopt when `path` does not exist (a fresh
/// cache), throws when it exists but cannot be read or parsed.
[[nodiscard]] std::optional<MemoCacheFile> load_memo_cache_file(
    const std::string& path, const std::string& expected_tag = {});

/// Read-merge-write: `fresh` entries (most recent first) take precedence,
/// disk entries not present in `fresh` are appended, and the merged file is
/// written through atomic_write_file.  The read-modify-write sequence is
/// serialized under one process-wide mutex so concurrently retiring sessions
/// cannot lose each other's observations.  Returns the merged entry count.
std::size_t flush_memo_cache_file(const std::string& path, const MemoCacheFile& fresh);

}  // namespace glova::core
