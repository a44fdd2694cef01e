// flow_lut.hpp — the temperature-indexed flow-rate look-up table (Sec. IV).
//
// "Based on this analysis ... we set up a look-up table indexed by
//  temperature values, and each line holds a flow rate value."
//
// The mapping from an observed maximum temperature to the flow setting that
// cools the system below the target depends on the flow the system is
// *currently* receiving (the same heat load reads hotter under less
// coolant), so the table is characterized per current setting: for each
// current setting s and each candidate setting k it stores the observed-T
// threshold above which at least setting k is required.  Fig. 5 is the
// s = lowest-setting row of this table.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace liquid3d {

class FlowLut {
 public:
  /// thresholds[s][k-1] = lowest observed T_max (measured while running at
  /// setting s) that requires at least setting k; k in 1..setting_count-1.
  /// Rows must be non-decreasing.
  FlowLut(std::vector<std::vector<double>> thresholds, double target_temperature);

  /// Minimum setting that cools the forecast temperature below the target,
  /// given the setting the observation was made under.
  [[nodiscard]] std::size_t required_setting(std::size_t current_setting,
                                             double observed_tmax) const;

  /// The observed-T boundary at which `setting` starts being required (the
  /// "boundary temperature between two flow rate settings" the paper's
  /// hysteresis is measured against).  Returns -infinity for setting 0.
  [[nodiscard]] double boundary(std::size_t current_setting, std::size_t setting) const;

  [[nodiscard]] std::size_t setting_count() const { return thresholds_.size(); }
  [[nodiscard]] double target_temperature() const { return target_; }

  /// Characterize a system.  tmax(u, s) must return the steady maximum
  /// temperature under uniform utilization u at setting s (see
  /// CharacterizationHarness).  `utilization_points` controls the sweep
  /// resolution.  Samples serially; `characterize_flow_lut` (characterize.hpp)
  /// is the parallel driver.
  [[nodiscard]] static FlowLut characterize(
      const std::function<double(double, std::size_t)>& tmax, std::size_t setting_count,
      double target_temperature, std::size_t utilization_points = 41);

  /// Build the table from a pre-sampled grid tmax_grid[setting][u_index]
  /// (utilizations uniform ascending on [0, 1]).  Splitting sampling from
  /// construction lets callers fan the solves out over a thread pool.
  [[nodiscard]] static FlowLut from_samples(
      const std::vector<std::vector<double>>& tmax_grid, double target_temperature);

 private:
  std::vector<std::vector<double>> thresholds_;
  double target_;
};

}  // namespace liquid3d
