#include "spice/counters.hpp"

#include "spice/simulator.hpp"

namespace glova::spice {

namespace {
CounterSink g_process;
}  // namespace

SpiceCounters CounterSink::spice() const {
  SpiceCounters c;
  c.steps_accepted = steps_accepted.load(std::memory_order_relaxed);
  c.steps_rejected = steps_rejected.load(std::memory_order_relaxed);
  c.recovered_dc = recovered_dc.load(std::memory_order_relaxed);
  c.recovered_transient = recovered_transient.load(std::memory_order_relaxed);
  c.deadline_aborts = deadline_aborts.load(std::memory_order_relaxed);
  return c;
}

void count(CounterSink::Counter CounterSink::*counter, std::uint64_t n) {
  if (n == 0) return;
  (g_process.*counter).fetch_add(n, std::memory_order_relaxed);
  if (CounterSink* sink = current_context().sink) {
    (sink->*counter).fetch_add(n, std::memory_order_relaxed);
  }
}

SpiceCounters spice_counters() { return g_process.spice(); }

void note_lte_steps(std::uint64_t accepted, std::uint64_t rejected) {
  count(&CounterSink::steps_accepted, accepted);
  count(&CounterSink::steps_rejected, rejected);
}

void note_recovered_dc() { count(&CounterSink::recovered_dc); }

void note_recovered_transient() { count(&CounterSink::recovered_transient); }

void note_deadline_abort() { count(&CounterSink::deadline_aborts); }

}  // namespace glova::spice
