#include "core/persistent_cache.hpp"

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "common/fsio.hpp"
#include "common/key_hash.hpp"
#include "common/state_io.hpp"
#include "common/text.hpp"

namespace glova::core {

namespace {

[[noreturn]] void bad_cache(const std::string& what) {
  throw std::runtime_error("glova-memo cache: " + what);
}

/// Read one line and split off its leading keyword (campaign-checkpoint
/// convention); throws via bad_cache on end-of-input or keyword mismatch.
std::string expect_cache_line(std::istream& is, std::string_view expect) {
  std::string line;
  if (!std::getline(is, line)) {
    bad_cache("truncated file: expected '" + std::string(expect) + "'");
  }
  const std::size_t space = line.find(' ');
  const std::string_view keyword = space == std::string::npos
                                       ? std::string_view(line)
                                       : std::string_view(line).substr(0, space);
  if (keyword != expect) {
    bad_cache("expected '" + std::string(expect) + "', got '" + line + "'");
  }
  return space == std::string::npos ? std::string() : line.substr(space + 1);
}

std::uint64_t parse_count(const std::string& text, std::string_view what) {
  try {
    std::size_t pos = 0;
    const std::uint64_t v = std::stoull(text, &pos);
    if (pos != text.size()) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    bad_cache("invalid integer for " + std::string(what) + ": '" + text + "'");
  }
}

/// One process-wide lock around every file read-modify-write: concurrently
/// retiring sessions that share a cache path must serialize their merges or
/// the later rename would silently drop the earlier flush's entries.
std::mutex& file_mutex() {
  static std::mutex m;
  return m;
}

struct KeyHash {
  std::size_t operator()(const std::vector<std::int64_t>& key) const noexcept {
    return key_fnv1a(key);
  }
};

}  // namespace

std::string memo_cache_tag(const std::string& testbench_name, const EngineConfig& engine) {
  std::string tag = testbench_name;
  tag += "|q=" + format_double_roundtrip(engine.cache_quantum);
  tag += engine.adaptive_timestep ? "|adaptive=1" : "|adaptive=0";
  tag += engine.recovery ? "|recovery=1" : "|recovery=0";
  tag += "|retries=" + std::to_string(engine.max_eval_retries);
  tag += "|deadline=" + std::to_string(engine.eval_deadline_steps);
  tag += engine.degrade_to_behavioral ? "|degrade=1" : "|degrade=0";
  tag += "|mos=" + engine.mos_model;
  tag += engine.spice_noise ? "|noise=1" : "|noise=0";
  return tag;
}

std::string memo_cache_file_name(const std::string& testbench_name, const EngineConfig& engine) {
  const std::string tag = memo_cache_tag(testbench_name, engine);
  // FNV-1a over the tag bytes; 32 bits is plenty to separate the handful of
  // configurations a cache directory ever sees.
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : tag) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  std::string base;
  base.reserve(testbench_name.size());
  for (const char c : testbench_name) {
    base += std::isalnum(static_cast<unsigned char>(c)) ? c : '-';
  }
  char suffix[16];
  std::snprintf(suffix, sizeof(suffix), "%08x", static_cast<unsigned>(h & 0xFFFFFFFFu));
  return base + "-" + suffix + ".memo";
}

void save_memo_cache(std::ostream& os, const MemoCacheFile& file) {
  os << "glova-memo v" << kMemoCacheFormatVersion << '\n';
  os << "tag " << state::one_line(file.tag) << '\n';
  os << "entries " << file.entries.size() << '\n';
  for (const MemoCacheEntry& e : file.entries) {
    os << "key " << e.key.size();
    for (const std::int64_t k : e.key) os << ' ' << k;
    os << '\n';
    state::write_doubles(os, "val", e.metrics);
  }
  os << "end\n";
  if (!os) bad_cache("write failed");
}

MemoCacheFile load_memo_cache(std::istream& is, const std::string& expected_tag) {
  {
    std::string header;
    if (!std::getline(is, header)) bad_cache("empty input");
    std::istringstream line(header);
    std::string magic;
    std::string version;
    line >> magic >> version;
    if (magic != "glova-memo") {
      bad_cache("not a memo-cache file (expected 'glova-memo v" +
                std::to_string(kMemoCacheFormatVersion) + "', got '" + header + "')");
    }
    if (version != "v" + std::to_string(kMemoCacheFormatVersion)) {
      bad_cache("unsupported format version '" + version + "' (this build reads v" +
                std::to_string(kMemoCacheFormatVersion) + ")");
    }
  }
  MemoCacheFile file;
  file.tag = expect_cache_line(is, "tag");
  if (!expected_tag.empty() && file.tag != expected_tag) {
    bad_cache("tag mismatch: file is tagged '" + file.tag + "' but this engine expects '" +
              expected_tag +
              "' — the cache belongs to a different (testcase, backend, numerics-config); "
              "delete the file or point cache_path elsewhere");
  }
  const std::uint64_t n = parse_count(expect_cache_line(is, "entries"), "entry count");
  if (n > kMaxMemoCacheEntries) {
    bad_cache("implausible entry count " + std::to_string(n) + " (cap is " +
              std::to_string(kMaxMemoCacheEntries) + ")");
  }
  file.entries.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    MemoCacheEntry entry;
    std::istringstream line(expect_cache_line(is, "key"));
    std::size_t klen = 0;
    if (!(line >> klen)) bad_cache("malformed key length in entry " + std::to_string(i));
    if (klen > state::kMaxCount) {
      bad_cache("implausible key length in entry " + std::to_string(i));
    }
    entry.key.resize(klen);
    for (std::int64_t& k : entry.key) {
      if (!(line >> k)) bad_cache("truncated key in entry " + std::to_string(i));
    }
    try {
      entry.metrics = state::read_doubles(is, "val");
    } catch (const std::exception& e) {
      bad_cache("bad metrics in entry " + std::to_string(i) + ": " + e.what());
    }
    file.entries.push_back(std::move(entry));
  }
  (void)expect_cache_line(is, "end");
  return file;
}

namespace {

std::optional<MemoCacheFile> load_file_locked(const std::string& path,
                                              const std::string& expected_tag) {
  std::ifstream is(path);
  if (!is) {
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) return std::nullopt;
    bad_cache("cannot open '" + path + "' for reading");
  }
  try {
    return load_memo_cache(is, expected_tag);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string(e.what()) + " [" + path + "]");
  }
}

}  // namespace

std::optional<MemoCacheFile> load_memo_cache_file(const std::string& path,
                                                  const std::string& expected_tag) {
  const std::lock_guard<std::mutex> lock(file_mutex());
  return load_file_locked(path, expected_tag);
}

std::size_t flush_memo_cache_file(const std::string& path, const MemoCacheFile& fresh) {
  const std::lock_guard<std::mutex> lock(file_mutex());
  MemoCacheFile merged;
  merged.tag = fresh.tag;
  std::unordered_set<std::vector<std::int64_t>, KeyHash> seen;
  seen.reserve(fresh.entries.size());
  for (const MemoCacheEntry& e : fresh.entries) {
    if (seen.insert(e.key).second) merged.entries.push_back(e);
  }
  // Append-friendly: disk entries this engine never saw (other sessions,
  // evictions from a smaller LRU) survive the flush behind the fresh ones.
  if (const std::optional<MemoCacheFile> disk = load_file_locked(path, fresh.tag)) {
    for (const MemoCacheEntry& e : disk->entries) {
      if (seen.insert(e.key).second) merged.entries.push_back(e);
    }
  }
  if (merged.entries.size() > kMaxMemoCacheEntries) {
    merged.entries.resize(kMaxMemoCacheEntries);
  }
  std::ostringstream os;
  save_memo_cache(os, merged);
  atomic_write_file(path, os.str());
  return merged.entries.size();
}

}  // namespace glova::core
