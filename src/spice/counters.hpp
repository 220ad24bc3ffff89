// Simulator and DC warm-start counters (relaxed atomics, summed over every
// thread).  Each event is added twice: to the process totals, and to the
// CounterSink of the evaluation context installed on the calling thread
// (see EvalContext in simulator.hpp), so core::EvaluationEngine reports
// exactly the work its own testbench calls did.
#pragma once

#include <atomic>
#include <cstdint>

namespace glova::spice {

struct SpiceCounters {
  /// Batched-evaluator groups run and total lanes marched across them.
  std::uint64_t batch_groups = 0;
  std::uint64_t batch_lanes = 0;
  /// Chord-Newton solves on frozen LU factors (Newton bypass) vs. full
  /// stamp + refactor solves taken in bypass mode (first step, stalls).
  std::uint64_t bypass_solves = 0;
  std::uint64_t bypass_refactors = 0;
  /// LTE-adaptive timestep controller: accepted steps and rejected (redone)
  /// steps, scalar and batched paths combined.
  std::uint64_t steps_accepted = 0;
  std::uint64_t steps_rejected = 0;
  /// Convergence-recovery ladder: DC points rescued by gmin stepping and
  /// transient steps rescued by substep cutting / DC restart (scalar and
  /// per-lane batched rescues combined).
  std::uint64_t recovered_dc = 0;
  std::uint64_t recovered_transient = 0;
  /// Runs aborted by the cooperative Newton-iteration deadline.
  std::uint64_t deadline_aborts = 0;
};

/// DC warm-start cache activity (summed over every thread's cache).
struct WarmStartStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
};

/// One set of counters.  The process totals are one sink; every evaluation
/// engine owns another.
struct CounterSink {
  using Counter = std::atomic<std::uint64_t>;
  Counter batch_groups{0};
  Counter batch_lanes{0};
  Counter bypass_solves{0};
  Counter bypass_refactors{0};
  Counter steps_accepted{0};
  Counter steps_rejected{0};
  Counter recovered_dc{0};
  Counter recovered_transient{0};
  Counter deadline_aborts{0};
  Counter warm_hits{0};
  Counter warm_misses{0};
  Counter warm_stores{0};

  [[nodiscard]] SpiceCounters spice() const;
  [[nodiscard]] WarmStartStats warm() const;
};

/// Add `n` to one counter of the process totals and of the calling thread's
/// installed sink (if any).
void count(CounterSink::Counter CounterSink::*counter, std::uint64_t n = 1);

/// Process totals since start-up.
[[nodiscard]] SpiceCounters spice_counters();
[[nodiscard]] WarmStartStats warm_start_stats();

void note_batch_group(std::uint64_t lanes);
void note_bypass_solves(std::uint64_t solves, std::uint64_t refactors);
void note_lte_steps(std::uint64_t accepted, std::uint64_t rejected);
void note_recovered_dc();
void note_recovered_transient();
void note_deadline_abort();

}  // namespace glova::spice
