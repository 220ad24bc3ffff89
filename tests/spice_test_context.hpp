// Test helper: install a SPICE evaluation context on the calling thread for
// one scope, counting into a sink of its own.
#pragma once

#include "spice/counters.hpp"
#include "spice/simulator.hpp"

namespace glova::spice {

/// Cold-default options with the DC warm-start cache on — the numerics a
/// direct testbench call in these suites is recorded under.
inline EvalContext warm_context(MosModel model = MosModel::kLevel1) {
  EvalContext context;
  context.options.mos_model = model;
  context.dc_warm_start = true;
  return context;
}

class ScopedTestContext {
 public:
  explicit ScopedTestContext(EvalContext context = warm_context()) : context_(context) {
    context_.sink = &sink_;
  }
  ScopedTestContext(const ScopedTestContext&) = delete;
  ScopedTestContext& operator=(const ScopedTestContext&) = delete;

  /// The counters of every call made while this scope was the installed one.
  [[nodiscard]] const CounterSink& sink() const { return sink_; }

 private:
  CounterSink sink_;
  EvalContext context_;
  ScopedEvalContext scope_{context_};
};

}  // namespace glova::spice
