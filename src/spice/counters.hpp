// Simulator counters (relaxed atomics, summed over every thread).  Each
// event is added twice: to the process totals, and to the CounterSink of the
// evaluation context installed on the calling thread (see EvalContext in
// simulator.hpp), so core::EvaluationEngine reports exactly the work its own
// testbench calls did.
#pragma once

#include <atomic>
#include <cstdint>

namespace glova::spice {

struct SpiceCounters {
  /// Always 0: the lockstep batched evaluator that counted them is gone.
  /// Kept only for glovabench/src/bench.cpp; delete at the next benchmark change.
  std::uint64_t batch_groups = 0;
  std::uint64_t batch_lanes = 0;
  /// LTE-adaptive timestep controller: accepted steps and rejected (redone)
  /// steps.
  std::uint64_t steps_accepted = 0;
  std::uint64_t steps_rejected = 0;
  /// Convergence-recovery ladder: DC points rescued by gmin stepping and
  /// transient steps rescued by substep cutting / DC restart.
  std::uint64_t recovered_dc = 0;
  std::uint64_t recovered_transient = 0;
  /// Runs aborted by the cooperative Newton-iteration deadline.
  std::uint64_t deadline_aborts = 0;
};

/// One set of counters.  The process totals are one sink; every evaluation
/// engine owns another.
struct CounterSink {
  using Counter = std::atomic<std::uint64_t>;
  Counter steps_accepted{0};
  Counter steps_rejected{0};
  Counter recovered_dc{0};
  Counter recovered_transient{0};
  Counter deadline_aborts{0};

  [[nodiscard]] SpiceCounters spice() const;
};

/// Add `n` to one counter of the process totals and of the calling thread's
/// installed sink (if any).
void count(CounterSink::Counter CounterSink::*counter, std::uint64_t n = 1);

/// Process totals since start-up.
[[nodiscard]] SpiceCounters spice_counters();

void note_lte_steps(std::uint64_t accepted, std::uint64_t rejected);
void note_recovered_dc();
void note_recovered_transient();
void note_deadline_abort();

}  // namespace glova::spice
