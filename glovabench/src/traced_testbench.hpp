// Forwarding circuits::Testbench decorator that times every call into the
// circuits layer.  It adds no behavior: every query and evaluation goes to
// the wrapped testbench unchanged, so a session driven through it returns
// exactly what the bare testbench returns (the benchmark checks this).
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "circuits/testbench.hpp"
#include "trace.hpp"

namespace glovabench {

/// Work counters of the circuits layer, summed over every thread.
struct CircuitsCounters {
  std::atomic<std::uint64_t> evals{0};        ///< evaluate() calls + batched lanes
  std::atomic<std::uint64_t> draw_groups{0};  ///< evaluate_draws() calls
  std::atomic<std::uint64_t> draw_lanes{0};   ///< draws inside those groups
  std::atomic<std::uint64_t> failures{0};     ///< EvaluationError throws + failed lanes
};

class TracedTestbench final : public glova::circuits::Testbench {
 public:
  TracedTestbench(glova::circuits::TestbenchPtr inner, Tracer& tracer, const ActiveSpan& active,
                  CircuitsCounters& counters)
      : inner_(std::move(inner)), tracer_(tracer), active_(active), counters_(counters) {}

  [[nodiscard]] const std::string& name() const override { return inner_->name(); }
  [[nodiscard]] const glova::circuits::SizingSpec& sizing() const override {
    return inner_->sizing();
  }
  [[nodiscard]] const glova::circuits::PerformanceSpec& performance() const override {
    return inner_->performance();
  }
  [[nodiscard]] glova::pdk::MismatchLayout mismatch_layout(std::span<const double> x,
                                                           bool global_enabled) const override {
    return inner_->mismatch_layout(x, global_enabled);
  }

  [[nodiscard]] std::vector<double> evaluate(std::span<const double> x,
                                             const glova::pdk::PvtCorner& corner,
                                             std::span<const double> h) const override {
    ScopedSpan span(tracer_, "circuits.evaluate", active_.id.load(), active_.op.load());
    counters_.evals.fetch_add(1, std::memory_order_relaxed);
    try {
      return inner_->evaluate(x, corner, h);
    } catch (const glova::circuits::EvaluationError&) {
      counters_.failures.fetch_add(1, std::memory_order_relaxed);
      throw;
    }
  }

  using glova::circuits::Testbench::evaluate_draws;
  [[nodiscard]] std::vector<std::vector<double>> evaluate_draws(
      std::span<const double> x, const glova::pdk::PvtCorner& corner,
      std::span<const std::vector<double>> hs,
      std::vector<glova::circuits::EvaluationFailure>& failures) const override {
    ScopedSpan span(tracer_, "circuits.evaluate_draws", active_.id.load(), active_.op.load());
    counters_.draw_groups.fetch_add(1, std::memory_order_relaxed);
    counters_.draw_lanes.fetch_add(hs.size(), std::memory_order_relaxed);
    counters_.evals.fetch_add(hs.size(), std::memory_order_relaxed);
    auto out = inner_->evaluate_draws(x, corner, hs, failures);
    for (const auto& f : failures) {
      if (f.failed) counters_.failures.fetch_add(1, std::memory_order_relaxed);
    }
    return out;
  }

  [[nodiscard]] bool supports_batched_draws() const override {
    return inner_->supports_batched_draws();
  }
  [[nodiscard]] const glova::circuits::Testbench* degraded_fallback() const override {
    return inner_->degraded_fallback();
  }

 private:
  glova::circuits::TestbenchPtr inner_;
  Tracer& tracer_;
  const ActiveSpan& active_;
  CircuitsCounters& counters_;
};

}  // namespace glovabench
