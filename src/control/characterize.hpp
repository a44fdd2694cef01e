// characterize.hpp — offline steady-state characterization of a stack.
//
// Both halves of the paper's technique rest on a pre-computed analysis of
// the target system (Sec. IV):
//   * the flow-rate look-up table needs "which flow setting cools a given
//     maximum temperature below the 80 °C target" (Fig. 5);
//   * the TALB weights need the position-dependent thermal efficiency of
//     each core ("the average power values for the cores to achieve a
//     balanced temperature").
// This harness computes steady states of a ThermalModel3D under uniform
// per-core utilization — the balanced-load operating point TALB itself
// drives the system toward — including the leakage-temperature fixed point,
// which ThermalModel3D::solve_steady_state's leakage loop solves to within
// kLeakageToleranceK.  Each solve continues from the model's current field
// (the previous operating point's answer), so neighbouring points converge
// in a few iterations; a solve that runs away resets the field to ambient.
// The grid is sampled in parallel (one harness per worker) by
// `sample_tmax_grid`, each row from the ambient field, so a grid does not
// depend on the worker count.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "control/flow_lut.hpp"
#include "coolant/flow.hpp"
#include "coolant/pump.hpp"
#include "coolant/valve_network.hpp"
#include "geom/sites.hpp"
#include "geom/stack.hpp"
#include "power/power_model.hpp"
#include "thermal/model3d.hpp"

namespace liquid3d {

class CharacterizationHarness {
 public:
  /// For liquid stacks; `delivery` maps pump settings to per-cavity flow.
  CharacterizationHarness(const Stack3D& stack, ThermalModelParams thermal_params,
                          PowerModelParams power_params, const PumpModel& pump,
                          FlowDeliveryMode delivery_mode);

  /// For air stacks (no pump; setting arguments must be 0).
  CharacterizationHarness(const Stack3D& stack, ThermalModelParams thermal_params,
                          PowerModelParams power_params);

  /// Steady maximum junction temperature under uniform core utilization
  /// `u` in [0,1] at the given pump setting.
  [[nodiscard]] double steady_tmax(double utilization, std::size_t setting);

  /// Steady maximum temperature at an explicit per-cavity flow.
  [[nodiscard]] double steady_tmax_at_flow(double utilization, VolumetricFlow per_cavity);

  /// Steady maximum temperature at an explicit per-cavity flow *vector*
  /// (valve-network operating points).
  [[nodiscard]] double steady_tmax_at_flows(double utilization,
                                            const std::vector<VolumetricFlow>& flows);

  /// Steady per-core temperatures (global core order) at the given setting.
  [[nodiscard]] std::vector<double> steady_core_temps(double utilization,
                                                      std::size_t setting);

  /// Smallest continuous per-cavity flow keeping T_max <= target (bisection
  /// over [lo, hi]); returns hi if even hi cannot cool the load.
  [[nodiscard]] VolumetricFlow min_flow_for_target(double utilization, double target_c,
                                                   VolumetricFlow lo, VolumetricFlow hi);

  [[nodiscard]] ThermalModel3D& model() { return model_; }
  [[nodiscard]] const FlowDelivery* delivery() const { return delivery_ ? &*delivery_ : nullptr; }
  [[nodiscard]] const std::vector<BlockSite>& core_sites() const { return cores_; }
  [[nodiscard]] std::size_t setting_count() const;
  [[nodiscard]] const PowerModel& power_model() const { return power_; }

  /// Apply the uniform-utilization power assignment to the model, with
  /// leakage evaluated at the given block-temperature guess source (current
  /// model temperatures).
  void apply_uniform_power(double utilization);

  /// Reset the model to the ambient field a fresh harness starts from.
  void reset();

  /// How the last steady solve's leakage loop ended.
  [[nodiscard]] const LeakageStatus& leakage_status() const { return status_; }

 private:
  /// The steady T_max at the model's current flow, from its current field;
  /// a solve that runs away (above 400 °C) aborts and resets the field.
  [[nodiscard]] double solve_with_leakage(double utilization);

  ThermalModel3D model_;
  PowerModel power_;
  std::optional<FlowDelivery> delivery_;
  std::vector<BlockSite> cores_;
  LeakageStatus status_;
};

/// Factory producing an independent harness per worker thread (each worker
/// owns its own ThermalModel3D — no shared mutable state).
using HarnessFactory = std::function<std::unique_ptr<CharacterizationHarness>()>;

/// Sample the steady T_max(u, s) characterization grid.  Whole setting rows
/// are distributed over `threads` workers (0 = hardware concurrency); each
/// row starts from the ambient field and sweeps utilization ascending, so
/// the grid is bit-identical at every worker count.  Returns
/// grid[setting][u_index].
[[nodiscard]] std::vector<std::vector<double>> sample_tmax_grid(
    const HarnessFactory& make_harness, std::size_t setting_count,
    std::size_t utilization_points, std::size_t threads = 0);

/// Full flow-LUT characterization: parallel grid sampling + table build.
[[nodiscard]] FlowLut characterize_flow_lut(const HarnessFactory& make_harness,
                                            double target_temperature,
                                            std::size_t utilization_points = 41,
                                            std::size_t threads = 0);

/// Per-cavity valve sensitivity grid: steady T_max with cavity k's valve
/// throttled to each sampled opening while every other valve stays fully
/// open (flows renormalized by the valve network, so the total delivered
/// flow is the setting's).  Result: grid[cavity][opening_index], openings
/// ascending from `min_opening` to 1.  Cavity rows are fanned out over the
/// ThreadPool (one harness per worker, each row from the ambient field),
/// mirroring sample_tmax_grid.
struct CavitySkewGrid {
  std::vector<double> openings;            ///< sampled opening values
  std::vector<std::vector<double>> tmax;   ///< [cavity][opening_index]
};
[[nodiscard]] CavitySkewGrid sample_cavity_skew_grid(
    const HarnessFactory& make_harness, const ValveNetwork& network,
    std::size_t setting, double utilization, std::size_t opening_points = 5,
    std::size_t threads = 0);

}  // namespace liquid3d
