// thermal_manager.hpp — the complete runtime technique of Fig. 4.
//
//   3D system -> monitor temperature -> forecast maximum temperature ->
//   (controller: flow-rate adjustment)  +  (scheduler: weighted load
//   balancing via the thermal weight table).
//
// This class owns the forecasting pipeline, the LUT controller, and the
// pump actuator; a SimulationSession calls update() once per sampling
// interval with the measured maximum temperature and reads back the thermal
// weights to hand to the TALB scheduler.  When a ValveNetwork is attached, update()
// additionally turns per-cavity temperature observations into valve-opening
// commands (CavityFlowController), steering the shared pump's flow toward
// the hottest cavity at conserved total delivered flow.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "control/cavity_flow_controller.hpp"
#include "control/flow_controller.hpp"
#include "control/talb_weights.hpp"
#include "coolant/pump.hpp"
#include "coolant/valve_network.hpp"
#include "forecast/adaptive_predictor.hpp"

namespace liquid3d {

struct ThermalManagerConfig {
  /// Use the LUT controller (false = pin the pump at the maximum setting,
  /// the paper's "(Max)" configurations).
  bool variable_flow = true;
  /// Ablation: react to the measured temperature instead of the forecast
  /// (what the paper argues against, given the ~275 ms pump latency).
  bool reactive = false;
  FlowControllerParams controller{};
  AdaptivePredictorConfig predictor{};
  /// The LUT is characterized against (target - margin): a steady-state
  /// guard band absorbing forecast error and the pump transition latency,
  /// so the *measured* temperature honours the target.
  double lut_margin_c = 2.0;
  /// Per-cavity delivery: route the pump through a valve network and steer
  /// flow toward the hottest cavity.  Valve decisions run in every cooling
  /// mode (including fixed-max pump), since redistribution is orthogonal to
  /// the pump setting.
  bool valve_network = false;
  ValveNetworkParams valves{};
  CavityFlowControllerParams cavity_controller{};
};

class ThermalManager {
 public:
  /// `valves`: the delivery manifold for per-cavity control; nullopt keeps
  /// the paper's uniform delivery (the config's valve fields are ignored).
  ThermalManager(FlowLut lut, TalbWeightTable weights, const PumpModel& pump,
                 ThermalManagerConfig cfg, std::optional<ValveNetwork> valves = {});

  /// One sampling interval: completes pending pump/valve transitions, feeds
  /// the predictor, and commands the controller's decisions.  `cavity_tmax`
  /// carries the per-cavity maximum temperatures when a valve network is
  /// attached; an empty vector issues no valve command, leaving the last
  /// commanded openings in place (e.g. across a sensor dropout).  Returns
  /// the pump setting commanded for the next interval.
  std::size_t update(SimTime now, double measured_tmax,
                     const std::vector<double>& cavity_tmax = {});

  /// TALB weight vector for the current maximum temperature.
  [[nodiscard]] const std::vector<double>& thermal_weights(double tmax) const {
    return weights_.lookup(tmax);
  }

  [[nodiscard]] const PumpActuator& actuator() const { return actuator_; }
  [[nodiscard]] PumpActuator& actuator() { return actuator_; }
  [[nodiscard]] bool has_valve_network() const { return valves_.has_value(); }
  /// Valve actuator (null when no valve network is attached).
  [[nodiscard]] const ValveNetworkActuator* valves() const {
    return valves_ ? &*valves_ : nullptr;
  }
  /// Per-cavity flows at the effective pump setting and valve openings.
  /// Requires an attached valve network.
  [[nodiscard]] std::vector<VolumetricFlow> cavity_flows() const;
  /// Allocation-free variant for per-tick callers: writes into `out`.
  void cavity_flows_into(std::vector<VolumetricFlow>& out) const;
  [[nodiscard]] double last_forecast() const { return last_forecast_; }
  [[nodiscard]] const AdaptivePredictor& predictor() const { return predictor_; }
  [[nodiscard]] const FlowRateController& controller() const { return controller_; }
  [[nodiscard]] const ThermalManagerConfig& config() const { return cfg_; }

 private:
  ThermalManagerConfig cfg_;
  FlowRateController controller_;
  TalbWeightTable weights_;
  AdaptivePredictor predictor_;
  PumpActuator actuator_;
  std::optional<CavityFlowController> cavity_controller_;
  std::optional<ValveNetworkActuator> valves_;
  std::size_t max_setting_;
  double last_forecast_ = 0.0;
  // Per-tick scratch: the valve command path must not allocate.
  std::vector<double> opening_scratch_;
};

}  // namespace liquid3d
