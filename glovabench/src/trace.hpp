// In-memory span tracing for the benchmark, plus the small statistics the
// report needs (percentiles, interval unions).
//
// Spans are recorded from the benchmark's own code around calls into each
// layer's public functions; nothing inside the library is instrumented.  Each
// thread appends to its own buffer (registered once), so recording takes no
// lock on the hot path; buffers are merged and written out when the run ends.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace glovabench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the process's steady clock (CLOCK_MONOTONIC on Linux, the
/// same clock the launcher reads, so set-up can be timed across the spawn).
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

struct Span {
  const char* name = "";      ///< static string: layer.operation
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;       ///< unique, nonzero
  std::uint64_t parent = 0;   ///< causing span, 0 = none
  std::uint64_t op = 0;       ///< operation (session / batch / job) id
};

/// Collects spans from every thread.  Disabled tracers record nothing, so
/// the same call sites serve traced and untraced runs.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }

  void record(const Span& span) {
    if (!enabled_) return;
    // Keyed by instance number, not address: a later tracer may reuse the
    // address of a destroyed one.
    thread_local std::vector<Span>* buffer = nullptr;
    thread_local std::uint64_t owner = 0;
    if (owner != instance_) {
      std::lock_guard<std::mutex> lock(mutex_);
      buffers_.push_back(std::make_unique<std::vector<Span>>());
      buffer = buffers_.back().get();
      owner = instance_;
    }
    buffer->push_back(span);
  }

  /// Drop every span recorded so far (e.g. from an untimed warm-up).  Call
  /// only once recording threads are quiescent.
  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& b : buffers_) b->clear();
  }

  /// Every recorded span, sorted by start.  Call only once recording threads
  /// are quiescent.
  [[nodiscard]] std::vector<Span> collect() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> all;
    for (const auto& b : buffers_) all.insert(all.end(), b->begin(), b->end());
    std::sort(all.begin(), all.end(),
              [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
    return all;
  }

 private:
  static std::uint64_t next_instance() {
    static std::atomic<std::uint64_t> count{0};
    return count.fetch_add(1) + 1;
  }

  bool enabled_;
  std::uint64_t instance_ = next_instance();
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// The span an operation's driving thread is currently inside, read by
/// layers called from other threads (pool workers) to name their parent.
/// Valid only while one operation is in flight at a time.
struct ActiveSpan {
  std::atomic<std::uint64_t> id{0};
  std::atomic<std::uint64_t> op{0};
};

/// Times a scope into a span when the tracer is enabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t parent, std::uint64_t op)
      : tracer_(tracer) {
    if (!tracer_.enabled()) return;
    span_.name = name;
    span_.id = tracer_.next_id();
    span_.parent = parent;
    span_.op = op;
    span_.start_ns = now_ns();
  }
  ~ScopedSpan() {
    if (!tracer_.enabled()) return;
    span_.end_ns = now_ns();
    tracer_.record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const { return span_.id; }

 private:
  Tracer& tracer_;
  Span span_;
};

/// Total length of the union of [start, end) intervals (parallel intervals
/// are counted once).
[[nodiscard]] inline double union_seconds(std::vector<std::pair<std::int64_t, std::int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t cur_start = 0;
  std::int64_t cur_end = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (!open || s > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) total += cur_end - cur_start;
  return static_cast<double>(total) * 1e-9;
}

/// Linear-interpolated percentile (p in [0, 100]) of unsorted values; 0 for
/// an empty set.
[[nodiscard]] inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

/// The highest of the standard tail percentiles that still has at least ten
/// samples beyond it, falling back to the median for small samples.
[[nodiscard]] inline double tail_percentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

}  // namespace glovabench
