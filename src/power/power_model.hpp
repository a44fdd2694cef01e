// power_model.hpp — per-unit power consumption (Sec. V).
//
// Paper values: core active power 3 W (UltraSPARC T1, peak ≈ average), sleep
// power 0.02 W; L2 cache 1.28 W per bank (CACTI 4.0, verified against the
// ISSCC'06 numbers); crossbar power scaled with the number of active cores
// and memory accesses; leakage via the polynomial temperature model.
// The idle (clocked but unassigned) core power is not printed in the paper;
// we use 0.9 W (~30 % of active), a common ratio for in-order multithreaded
// cores of that generation.
#pragma once

#include <concepts>
#include <type_traits>

#include "power/leakage.hpp"

namespace liquid3d {

/// Core power states.  Idle means clocked with an empty run queue; Sleep is
/// the DPM low-power state entered after the fixed timeout.
enum class CoreState { kActive, kIdle, kSleep };

[[nodiscard]] const char* to_string(CoreState s);

struct PowerModelParams {
  double core_active_w = 3.0;   ///< paper / ISSCC'06
  /// The T1's average power is close to its peak ("SPARC's peak power is
  /// close to its average value") — an idle-but-clocked core still burns a
  /// large fraction of active power.
  double core_idle_w = 1.5;
  double core_sleep_w = 0.02;   ///< paper
  double l2_w = 1.28;           ///< paper / CACTI 4.0
  double crossbar_max_w = 3.0;  ///< crossbar at full activity (paper's value)
  /// Crossbar idle floor as a fraction of max (clock distribution etc.).
  double crossbar_floor_frac = 0.25;
  /// Background (misc blocks: memory controllers, DRAM interface, IO) areal
  /// power density; sized so the 2-layer chip lands near the T1's power
  /// envelope at high load.
  double misc_w_per_m2 = 8.0e4;

  // Reference leakage per unit at the leakage model's reference temperature.
  double core_leak_ref_w = 0.50;
  double l2_leak_ref_w = 0.35;
  double crossbar_leak_ref_w = 0.25;
  double misc_leak_ref_w_per_m2 = 1.5e4;

  LeakageParams leakage{};
};

/// The one list of PowerModelParams' leaf fields (nested leakage included):
/// calls f(name, field) for each, with `p` const or mutable.  Cache
/// identities are derived from this walk.
template <class Params, class F>
  requires std::same_as<std::remove_const_t<Params>, PowerModelParams>
constexpr void visit_fields(Params& p, F&& f) {
  f("core_active_w", p.core_active_w);
  f("core_idle_w", p.core_idle_w);
  f("core_sleep_w", p.core_sleep_w);
  f("l2_w", p.l2_w);
  f("crossbar_max_w", p.crossbar_max_w);
  f("crossbar_floor_frac", p.crossbar_floor_frac);
  f("misc_w_per_m2", p.misc_w_per_m2);
  f("core_leak_ref_w", p.core_leak_ref_w);
  f("l2_leak_ref_w", p.l2_leak_ref_w);
  f("crossbar_leak_ref_w", p.crossbar_leak_ref_w);
  f("misc_leak_ref_w_per_m2", p.misc_leak_ref_w_per_m2);
  f("leakage_reference_temperature", p.leakage.reference_temperature);
  f("leakage_linear_coeff", p.leakage.linear_coeff);
  f("leakage_quadratic_coeff", p.leakage.quadratic_coeff);
}

// Drift tripwire: a new field changes the size and stops the build here,
// until it is in visit_fields and this size is updated.
static_assert(sizeof(void*) != 8 || sizeof(PowerModelParams) == 112,
              "PowerModelParams changed: update visit_fields and this size");

class PowerModel {
 public:
  explicit PowerModel(PowerModelParams params = {});

  [[nodiscard]] const PowerModelParams& params() const { return params_; }
  [[nodiscard]] const LeakageModel& leakage() const { return leakage_; }

  /// Core dynamic + leakage power for one sampling interval.
  ///   state    — DPM state during the interval,
  ///   busy     — fraction of the interval the core executed threads [0,1],
  ///   activity — benchmark-dependent switching intensity (FP-heavy code
  ///              runs hotter); 1.0 is nominal,
  ///   temperature_c — block temperature for the leakage term.
  [[nodiscard]] double core_power(CoreState state, double busy, double activity,
                                  double temperature_c) const;

  /// L2 bank power (paper: constant dynamic power + leakage).
  [[nodiscard]] double l2_power(double temperature_c) const;

  /// Crossbar power scaled by active-core fraction and memory intensity
  /// (both in [0,1]); the paper scales the average crossbar power by the
  /// number of active cores and the memory accesses.
  [[nodiscard]] double crossbar_power(double active_core_fraction,
                                      double memory_intensity,
                                      double temperature_c) const;

  /// Background power for a misc block of the given area [m^2].
  [[nodiscard]] double misc_power(double area_m2, double temperature_c) const;

 private:
  PowerModelParams params_;
  LeakageModel leakage_;
};

}  // namespace liquid3d
