#include "spice/counters.hpp"

#include "spice/simulator.hpp"

namespace glova::spice {

namespace {
CounterSink g_process;
}  // namespace

SpiceCounters CounterSink::spice() const {
  SpiceCounters c;
  c.batch_groups = batch_groups.load(std::memory_order_relaxed);
  c.batch_lanes = batch_lanes.load(std::memory_order_relaxed);
  c.bypass_solves = bypass_solves.load(std::memory_order_relaxed);
  c.bypass_refactors = bypass_refactors.load(std::memory_order_relaxed);
  c.steps_accepted = steps_accepted.load(std::memory_order_relaxed);
  c.steps_rejected = steps_rejected.load(std::memory_order_relaxed);
  c.recovered_dc = recovered_dc.load(std::memory_order_relaxed);
  c.recovered_transient = recovered_transient.load(std::memory_order_relaxed);
  c.deadline_aborts = deadline_aborts.load(std::memory_order_relaxed);
  return c;
}

WarmStartStats CounterSink::warm() const {
  WarmStartStats s;
  s.hits = warm_hits.load(std::memory_order_relaxed);
  s.misses = warm_misses.load(std::memory_order_relaxed);
  s.stores = warm_stores.load(std::memory_order_relaxed);
  return s;
}

void count(CounterSink::Counter CounterSink::*counter, std::uint64_t n) {
  if (n == 0) return;
  (g_process.*counter).fetch_add(n, std::memory_order_relaxed);
  if (CounterSink* sink = current_context().sink) {
    (sink->*counter).fetch_add(n, std::memory_order_relaxed);
  }
}

SpiceCounters spice_counters() { return g_process.spice(); }

WarmStartStats warm_start_stats() { return g_process.warm(); }

void note_batch_group(std::uint64_t lanes) {
  count(&CounterSink::batch_groups);
  count(&CounterSink::batch_lanes, lanes);
}

void note_bypass_solves(std::uint64_t solves, std::uint64_t refactors) {
  count(&CounterSink::bypass_solves, solves);
  count(&CounterSink::bypass_refactors, refactors);
}

void note_lte_steps(std::uint64_t accepted, std::uint64_t rejected) {
  count(&CounterSink::steps_accepted, accepted);
  count(&CounterSink::steps_rejected, rejected);
}

void note_recovered_dc() { count(&CounterSink::recovered_dc); }

void note_recovered_transient() { count(&CounterSink::recovered_transient); }

void note_deadline_abort() { count(&CounterSink::deadline_aborts); }

}  // namespace glova::spice
