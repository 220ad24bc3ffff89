// The testbench abstraction: everything the optimizer sees of a circuit.
//
// A Testbench maps a sizing vector x (physical units) plus a PVT corner t and
// a mismatch condition h to a vector of performance metrics F_i(x | t, h)
// (paper Sec. III-A).  Two implementations exist per circuit: a closed-form
// behavioral model (fast; used by benches) and a SPICE-netlist model (used by
// tests/examples).  Both share sizing/performance specs and mismatch layout,
// so the optimization problem is identical.
#pragma once

#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "pdk/corner.hpp"
#include "pdk/variation.hpp"

namespace glova::circuits {

/// Design-space description: per-parameter physical bounds (paper Sec. VI-A
/// gives [0.28, 32.8] um widths, [0.03, 0.33] um lengths, [0.005, 5.5] pF).
struct SizingSpec {
  std::vector<std::string> names;
  std::vector<double> lower;  ///< [SI units]
  std::vector<double> upper;  ///< [SI units]

  [[nodiscard]] std::size_t dimension() const { return names.size(); }

  /// Map a normalized point in [0,1]^p to physical units (linear).
  [[nodiscard]] std::vector<double> denormalize(std::span<const double> x01) const;

  /// Map a physical point to [0,1]^p.
  [[nodiscard]] std::vector<double> normalize(std::span<const double> physical) const;

  /// Clamp a normalized point into [0,1]^p.
  static void clamp01(std::span<double> x01);

  /// log10 of the design-space cardinality assuming ~100 steps/axis — the
  /// "10^28 design space" style figure quoted in the paper.
  [[nodiscard]] double log10_space_size(double steps_per_axis = 100.0) const;
};

/// Whether a metric must stay below or above its bound.
enum class Sense { MinimizeBelow, MaximizeAbove };

struct MetricSpec {
  std::string name;
  std::string unit;        ///< for printing ("uW", "ns", ...)
  double unit_scale = 1.0; ///< SI value * 1/unit_scale = value in `unit`
  double bound = 0.0;      ///< constraint c_i in SI units
  Sense sense = Sense::MinimizeBelow;
};

struct PerformanceSpec {
  std::vector<MetricSpec> metrics;
  [[nodiscard]] std::size_t count() const { return metrics.size(); }
};

/// Normalized constraint margin f_i of Eq. (5):
///   MinimizeBelow: f = (c - F) / (c + F)
///   MaximizeAbove: f = (F - c) / (F + c)
/// Positive iff the constraint is met; magnitudes are comparable across
/// metrics.  Raw metric values are positive magnitudes, which keeps the
/// denominator positive (guarded anyway).
[[nodiscard]] double normalized_margin(const MetricSpec& spec, double value);

/// Degradation score g_i = -f_i (bigger = worse); the mu-sigma evaluation
/// (Eq. 7) and the t-/h-SCOREs operate in this space.
[[nodiscard]] double degradation(const MetricSpec& spec, double value);

/// Structured record of one failed evaluation, mirrored from the simulator's
/// failure taxonomy without depending on it (behavioral backends never fail,
/// so a default-constructed instance means "evaluated fine").
struct EvaluationFailure {
  bool failed = false;
  std::string stage;        ///< e.g. "dc-operating-point", "deadline"
  std::string message;      ///< the canonical one-line error
  int recovery_attempts = 0;///< recovery rungs the simulator tried
};

/// Thrown by SPICE-backed Testbench::evaluate when the simulation did not
/// converge.  Carries the penalty metrics the backend historically returned
/// inline (every constraint failed, so the optimizer steers away); callers
/// that do not retry or degrade fall back to exactly those values, keeping
/// legacy behavior bit-identical.
class EvaluationError : public std::runtime_error {
 public:
  EvaluationError(EvaluationFailure failure, std::vector<double> penalty_metrics)
      : std::runtime_error(failure.message),
        failure_(std::move(failure)),
        penalty_metrics_(std::move(penalty_metrics)) {}

  [[nodiscard]] const EvaluationFailure& failure() const { return failure_; }
  [[nodiscard]] const std::vector<double>& penalty_metrics() const { return penalty_metrics_; }

 private:
  EvaluationFailure failure_;
  std::vector<double> penalty_metrics_;
};

class Testbench {
 public:
  virtual ~Testbench() = default;

  [[nodiscard]] virtual const std::string& name() const = 0;
  [[nodiscard]] virtual const SizingSpec& sizing() const = 0;
  [[nodiscard]] virtual const PerformanceSpec& performance() const = 0;

  /// Mismatch space H for the design x (Sigma_Local depends on x through the
  /// Pelgrom law).  `global_enabled` selects the Table I row (C-MC_G-L).
  [[nodiscard]] virtual pdk::MismatchLayout mismatch_layout(std::span<const double> x,
                                                            bool global_enabled) const = 0;

  /// Evaluate all metrics for physical sizing x under corner t and mismatch
  /// condition h.  h may be empty (nominal device parameters).  Must be
  /// thread-safe: simulations run in parallel.
  [[nodiscard]] virtual std::vector<double> evaluate(std::span<const double> x,
                                                     const pdk::PvtCorner& corner,
                                                     std::span<const double> h) const = 0;

  /// Evaluate a group of mismatch draws of one (x, corner) by looping
  /// evaluate(): one metric vector per draw, in input order, with
  /// failures[i].failed set (and the draw's metrics the backend's penalty
  /// sentinel) when draw i did not converge.  Nothing in the library calls
  /// it; kept only because glovabench/src/traced_testbench.hpp overrides it.
  /// Delete at the next benchmark change.
  [[nodiscard]] virtual std::vector<std::vector<double>> evaluate_draws(
      std::span<const double> x, const pdk::PvtCorner& corner,
      std::span<const std::vector<double>> hs,
      std::vector<EvaluationFailure>& failures) const;

  /// Always false.  Kept only because glovabench/src/traced_testbench.hpp
  /// overrides it; delete at the next benchmark change.
  [[nodiscard]] virtual bool supports_batched_draws() const { return false; }

  /// Cheaper stand-in for graceful degradation: when an evaluation keeps
  /// failing after every retry, the engine (with degrade_to_behavioral set)
  /// quarantines the draw to this testbench instead of accepting the penalty
  /// sentinel.  nullptr (the default) means no fallback exists.  SPICE
  /// backends return their behavioral sibling, which shares specs and
  /// mismatch layout by construction.
  [[nodiscard]] virtual const Testbench* degraded_fallback() const { return nullptr; }
};

using TestbenchPtr = std::shared_ptr<const Testbench>;

}  // namespace glova::circuits
