// SPICE-netlist testbenches for the Table II circuit blocks.
//
// Each class builds a transistor-level netlist, runs a transient through the
// in-repo MNA engine, and extracts the same metrics its behavioral sibling
// reports, sharing the sibling's sizing/performance specs and mismatch
// layout so the optimization problem is identical across backends:
//   * StrongArmLatchSpice — tail, input pair, cross-coupled inverters,
//     precharge devices, SR-latch load caps; two-phase (evaluate + reset)
//     clocked transient.
//   * FloatingInverterAmplifierSpice — push-pull inverter pair powered from
//     a floating reservoir capacitor behind precharge switches; the
//     integration window and gain are measured from the reservoir droop and
//     the differential output ramp.
//   * DramOcsaSubholeSpice — open-bitline charge sharing from a cell cap
//     through a boosted access device into a cross-coupled sense amplifier
//     with per-SA-share subhole drivers; one transient per data polarity.
// Thermal noise defaults to the analytic budget (mirroring how dynamic
// comparator noise is usually budgeted by hand).  When the engine's
// `spice_noise` knob is on, the SAL and FIA backends instead linearize the
// amplify-phase netlist at its DC operating point and integrate the
// simulated thermal + flicker output noise through spice::noise_analysis()
// (docs/architecture.md#ac-noise), falling back to the analytic budget only
// when the small-signal pass fails.
#pragma once

#include <optional>
#include <utility>

#include "circuits/dram_ocsa.hpp"
#include "circuits/fia.hpp"
#include "circuits/strongarm.hpp"
#include "spice/circuit.hpp"
#include "spice/simulator.hpp"

namespace glova::circuits {

/// Translate a simulator failure report into the engine-facing record
/// (shared by all three SPICE backends so the taxonomy never drifts).
[[nodiscard]] EvaluationFailure evaluation_failure_from(const spice::FailureReport& report);

class StrongArmLatchSpice final : public Testbench {
 public:
  StrongArmLatchSpice();

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const SizingSpec& sizing() const override { return behavioral_.sizing(); }
  [[nodiscard]] const PerformanceSpec& performance() const override {
    return behavioral_.performance();
  }

  [[nodiscard]] pdk::MismatchLayout mismatch_layout(std::span<const double> x,
                                                    bool global_enabled) const override {
    return behavioral_.mismatch_layout(x, global_enabled);
  }

  [[nodiscard]] std::vector<double> evaluate(std::span<const double> x,
                                             const pdk::PvtCorner& corner,
                                             std::span<const double> h) const override;

  [[nodiscard]] const Testbench* degraded_fallback() const override { return &behavioral_; }

  /// Build the SAL netlist for inspection (Fig. 4 reproduction).  With
  /// `amplify_phase_dc` the clock is held DC-high: the latch then has a
  /// (metastable, symmetric) amplify-phase operating point the small-signal
  /// noise pass can linearize around.
  [[nodiscard]] spice::Circuit build_netlist(std::span<const double> x,
                                             const pdk::PvtCorner& corner,
                                             std::span<const double> h,
                                             bool amplify_phase_dc = false) const;

 private:
  /// Metric extraction from a converged transient.
  [[nodiscard]] std::vector<double> metrics_from_transient(const spice::TransientResult& res,
                                                           std::span<const double> x,
                                                           const pdk::PvtCorner& corner,
                                                           std::span<const double> h) const;

  /// Simulated input-referred noise from the amplify-phase AC pass; empty
  /// when the operating point or the linear solve does not cooperate.
  [[nodiscard]] std::optional<double> simulated_input_noise(std::span<const double> x,
                                                            const pdk::PvtCorner& corner,
                                                            std::span<const double> h) const;

  std::string name_ = "StrongARM latch (SPICE)";
  StrongArmLatch behavioral_;  // reuses specs, layout, and noise budget
};

class FloatingInverterAmplifierSpice final : public Testbench {
 public:
  FloatingInverterAmplifierSpice();

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const SizingSpec& sizing() const override { return behavioral_.sizing(); }
  [[nodiscard]] const PerformanceSpec& performance() const override {
    return behavioral_.performance();
  }

  [[nodiscard]] pdk::MismatchLayout mismatch_layout(std::span<const double> x,
                                                    bool global_enabled) const override {
    return behavioral_.mismatch_layout(x, global_enabled);
  }

  [[nodiscard]] std::vector<double> evaluate(std::span<const double> x,
                                             const pdk::PvtCorner& corner,
                                             std::span<const double> h) const override;

  [[nodiscard]] const Testbench* degraded_fallback() const override { return &behavioral_; }

  /// Build the FIA netlist for inspection (reservoir, switches, inverters).
  /// With `amplify_phase_dc` the floating reservoir is replaced by ideal
  /// rails (switches on, clamps off): the amplify-phase small-signal pass
  /// needs a DC path the floating cap cannot provide.
  [[nodiscard]] spice::Circuit build_netlist(std::span<const double> x,
                                             const pdk::PvtCorner& corner,
                                             std::span<const double> h,
                                             bool amplify_phase_dc = false) const;

 private:
  /// Metric extraction from a converged transient.
  [[nodiscard]] std::vector<double> metrics_from_transient(const spice::TransientResult& res,
                                                           std::span<const double> x,
                                                           const pdk::PvtCorner& corner,
                                                           std::span<const double> h,
                                                           double t_stop) const;

  /// Simulated input-referred noise from the amplify-phase AC pass; empty
  /// when the operating point or the linear solve does not cooperate.
  [[nodiscard]] std::optional<double> simulated_input_noise(std::span<const double> x,
                                                            const pdk::PvtCorner& corner,
                                                            std::span<const double> h) const;

  std::string name_ = "Floating inverter amplifier (SPICE)";
  FloatingInverterAmplifier behavioral_;  // specs, layout, noise decomposition
};

class DramOcsaSubholeSpice final : public Testbench {
 public:
  DramOcsaSubholeSpice();

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const SizingSpec& sizing() const override { return behavioral_.sizing(); }
  [[nodiscard]] const PerformanceSpec& performance() const override {
    return behavioral_.performance();
  }

  [[nodiscard]] pdk::MismatchLayout mismatch_layout(std::span<const double> x,
                                                    bool global_enabled) const override {
    return behavioral_.mismatch_layout(x, global_enabled);
  }

  [[nodiscard]] std::vector<double> evaluate(std::span<const double> x,
                                             const pdk::PvtCorner& corner,
                                             std::span<const double> h) const override;

  [[nodiscard]] const Testbench* degraded_fallback() const override { return &behavioral_; }

  /// Build the sensing netlist for one stored data polarity.
  [[nodiscard]] spice::Circuit build_netlist(std::span<const double> x,
                                             const pdk::PvtCorner& corner,
                                             std::span<const double> h, bool data_one) const;

 private:
  /// Per-polarity sensing margin and measured read energy from a converged
  /// transient.
  [[nodiscard]] std::pair<double, double> polarity_margin_energy(
      const spice::TransientResult& res, std::span<const double> x,
      const pdk::PvtCorner& corner, std::span<const double> h, bool data_one) const;

  /// Amortized analytic shared-driver overhead for one mismatch draw.
  [[nodiscard]] double driver_overhead_energy(std::span<const double> x,
                                              const pdk::PvtCorner& corner,
                                              std::span<const double> h) const;

  std::string name_ = "OCSA and SH in DRAM core (SPICE)";
  DramOcsaSubhole behavioral_;  // specs, layout, conditions
};

}  // namespace glova::circuits
