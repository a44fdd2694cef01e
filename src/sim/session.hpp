// session.hpp — the steppable full-system simulation: workload + scheduler +
// DPM + power + 3D thermal model + the joint flow-controller/TALB technique.
//
// One SimulationSession runs one (system, cooling, policy, workload) cell of
// the Sec. V evaluation grid, sampled every 100 ms and initialized from the
// steady state — but unlike the legacy monolithic `Simulator::run()`, the
// loop is externalized:
//
//   SimulationSession s(cfg);
//   s.init();                       // steady-state warm start, reset metrics
//   while (s.step()) { ... }        // one sampling tick at a time
//   SimulationResult r = s.result();
//
// Everything the loop touches is inspectable between steps (temperature
// field, power, manager decisions, queues), and each tick decomposes further
// into begin_tick() / <thermal substeps> / finish_tick() so a BatchRunner
// can co-advance many sessions through one shared factorization
// (sim/batch_runner.hpp).  `Simulator` (sim/simulator.hpp) survives as a
// thin compatibility loop over this class.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "control/thermal_manager.hpp"
#include "coolant/flow.hpp"
#include "geom/sites.hpp"
#include "geom/stack.hpp"
#include "geom/stack_spec.hpp"
#include "power/dpm.hpp"
#include "power/energy.hpp"
#include "power/power_model.hpp"
#include "sched/scheduler.hpp"
#include "sim/metrics.hpp"
#include "thermal/model3d.hpp"
#include "workload/generator.hpp"

namespace liquid3d {

/// Scheduling policy (Sec. V).
enum class Policy { kLoadBalancing, kReactiveMigration, kTalb };
/// Cooling configuration (Sec. V): air, liquid at worst-case flow, or
/// liquid with the paper's variable-flow controller.
enum class CoolingMode { kAir, kLiquidMax, kLiquidVar };

[[nodiscard]] const char* to_string(Policy p);
[[nodiscard]] const char* to_string(CoolingMode m);
/// Paper-style label, e.g. "TALB (Var)".
[[nodiscard]] std::string policy_label(Policy p, CoolingMode m);

struct SimulationConfig {
  /// Legacy alias for the Niagara presets: 1 -> 2-layer system (8 cores),
  /// 2 -> 4-layer system (16 cores).  Ignored when `stack` is set.
  std::size_t layer_pairs = 1;
  /// Declarative stack geometry — the single source of truth when set
  /// (resolved_stack_spec validates it against `cooling`).  Unset = the
  /// Niagara preset selected by `layer_pairs`.
  std::optional<StackSpec> stack;
  CoolingMode cooling = CoolingMode::kLiquidVar;
  Policy policy = Policy::kTalb;
  /// Display label reported in SimulationResult; empty = the paper-style
  /// policy_label().  ScenarioSpec binding fills this in.
  std::string label;
  BenchmarkSpec benchmark;
  SimTime duration = SimTime::from_s(60);
  SimTime sampling_interval = SimTime::from_ms(100);
  /// Thermal solver sub-steps per sampling interval.
  std::size_t thermal_substeps = 2;
  std::uint64_t seed = 1;
  /// Worker threads for flow-LUT characterization.  The default is a fixed
  /// count (not hardware concurrency): warm-start trajectories depend on
  /// which worker sweeps which setting rows, so sampled temperatures vary
  /// at the millikelvin level with the worker count — a fixed default keeps
  /// the LUT machine-independent.  0 = hardware concurrency (accepting that
  /// variance).
  std::size_t characterization_threads = 4;

  /// Thermal model knobs: grid, materials, boundary temperatures.
  ThermalModelParams thermal{};
  PowerModelParams power{};
  DpmParams dpm{};
  MetricThresholds metrics{};
  ThermalManagerConfig manager{};
  MigrationParams migration{};
  LoadBalancerParams load_balancer{};
  TalbParams talb{};
  GeneratorConfig generator{};
  FlowDeliveryMode delivery_mode = FlowDeliveryMode::kPressureLimited;
  std::vector<PhaseChange> phases{};
  /// Per-core dispatch bias handed to the load-balancing schedulers; empty
  /// = uniform.  Used by the skewed-workload scenarios (hot upper die, hot
  /// corner) to concentrate load on a core subset.
  std::vector<double> core_bias{};

  /// Pre-built characterization artifacts (reused across runs of the same
  /// system).  Fetched from CharacterizationCache::global() when absent.
  std::shared_ptr<const FlowLut> flow_lut;
  std::shared_ptr<const TalbWeightTable> talb_weights;
};

struct SimulationResult {
  std::string label;
  std::string benchmark;
  double hotspot_percent = 0.0;
  double hotspot_max_sample = 0.0;  ///< peak T_max over the run
  double above_target_percent = 0.0;
  double spatial_gradient_percent = 0.0;
  double thermal_cycles_per_1000 = 0.0;
  double avg_tmax = 0.0;
  double chip_energy_j = 0.0;
  double pump_energy_j = 0.0;
  double total_energy_j = 0.0;
  double throughput_per_s = 0.0;
  double avg_utilization = 0.0;
  std::size_t migrations = 0;
  std::size_t pump_transitions = 0;
  std::size_t valve_transitions = 0;
  /// Mean ratio of the largest to the smallest per-cavity flow over the run
  /// (1.0 = uniform delivery; >1 = the valve network steered flow).
  double avg_flow_skew = 1.0;
  std::size_t predictor_rebuilds = 0;
  double forecast_rmse = 0.0;
  double avg_pump_setting = 0.0;
  double elapsed_s = 0.0;
};

/// Per-sample trace record for examples and debugging.
struct SampleTrace {
  SimTime now{};
  double tmax = 0.0;
  double forecast = 0.0;
  std::size_t pump_setting = 0;
  double flow_ml_per_min = 0.0;
  double chip_watts = 0.0;
  double pump_watts = 0.0;
  double mean_busy = 0.0;
  std::size_t queued_threads = 0;
};

/// The StackSpec a configuration resolves to: cfg.stack when set (validated,
/// cooling must agree with cfg.cooling), else the Niagara preset named by
/// cfg.layer_pairs.  Throws ConfigError naming the offending field.
[[nodiscard]] StackSpec resolved_stack_spec(const SimulationConfig& cfg);

/// Stack geometry for a configuration (shared by sessions and the
/// characterization cache): make_stack(resolved_stack_spec(cfg)).
[[nodiscard]] Stack3D make_simulation_stack(const SimulationConfig& cfg);

class SimulationSession {
 public:
  explicit SimulationSession(SimulationConfig config);

  /// Steady-state warm start ("all simulations are initialized with steady
  /// state temperature values", Sec. V) and reset of every aggregate.  Must
  /// be called before step(); calling it again restarts the aggregation
  /// (workload generator and scheduler state persist, as they did across
  /// legacy `Simulator::run()` calls).
  void init();

  /// Advance one sampling interval.  Returns false (and does nothing) once
  /// the configured duration has been simulated.
  bool step();

  /// Aggregate result of the ticks completed so far; the final result once
  /// done().  Rates (throughput, energy) are over the elapsed ticks.
  [[nodiscard]] SimulationResult result() const;

  // -- Introspection ---------------------------------------------------------
  [[nodiscard]] bool initialized() const { return initialized_; }
  [[nodiscard]] bool done() const { return initialized_ && tick_ >= ticks_; }
  /// Simulated time at the end of the last completed tick.
  [[nodiscard]] SimTime now() const;
  [[nodiscard]] std::size_t ticks_completed() const { return tick_; }
  [[nodiscard]] std::size_t tick_count() const { return ticks_; }
  [[nodiscard]] const SimulationConfig& config() const { return cfg_; }
  [[nodiscard]] const Stack3D& stack() const { return stack_; }
  [[nodiscard]] std::size_t core_count() const { return cores_.size(); }
  /// The session's thermal model — the full temperature field, mutable so a
  /// batch runner can advance it externally between begin/finish.
  [[nodiscard]] ThermalModel3D& thermal() { return thermal_; }
  [[nodiscard]] const ThermalModel3D& thermal() const { return thermal_; }
  /// Chip power injected for the current/last tick [W].
  [[nodiscard]] double chip_watts() const { return last_chip_watts_; }
  /// Per-core busy fractions executed in the current/last tick.
  [[nodiscard]] const std::vector<double>& busy_fraction() const {
    return exec_.busy_fraction;
  }
  /// Runtime thermal manager (null on air systems).
  [[nodiscard]] const ThermalManager* manager() const { return manager_.get(); }

  // -- Service-facing read-only state ----------------------------------------
  // What a long-lived server needs to answer "where is this session now?"
  // without reaching into the thermal model or the manager's internals.
  /// Peak junction temperature of the current field [°C].
  [[nodiscard]] double current_tmax() const;
  /// Effective valve openings (empty when the system has no valve network).
  [[nodiscard]] const std::vector<double>& valve_openings() const;
  /// Effective pump setting index (0 on air systems).
  [[nodiscard]] std::size_t pump_setting() const;
  /// Workload phases (cfg.phases) whose start time has been reached: 0 before
  /// the first change, cfg.phases.size() once all have fired.
  [[nodiscard]] std::size_t phase_index() const;

  /// Optional per-sample observer.
  void set_trace_callback(std::function<void(const SampleTrace&)> cb) {
    trace_ = std::move(cb);
  }

  // -- Lockstep decomposition (BatchRunner) ----------------------------------
  // step() == begin_tick(); substep_count() x thermal().step(substep_dt());
  // finish_tick().  A batch runner runs the middle part in lockstep across
  // a group whose models share LU factors; everything else stays
  // per-session.
  /// Workload arrivals, scheduling, execution, DPM, power injection, and the
  /// flow decision for one tick — everything that feeds the thermal solve.
  void begin_tick();
  [[nodiscard]] std::size_t substep_count() const { return cfg_.thermal_substeps; }
  [[nodiscard]] double substep_dt() const;
  /// Post-thermal bookkeeping: manager update, metrics, energy accounting,
  /// forecast scoring, trace callback.
  void finish_tick();

 private:
  void apply_power(const std::vector<double>& busy, const BenchmarkSpec& bench);
  void read_core_temps(std::vector<double>& out) const;
  void read_unit_temps(std::vector<double>& out) const;
  void warm_start();
  /// Push the manager's effective flow decision (uniform or per-cavity)
  /// into the thermal model; returns the max/min flow ratio (1 = uniform).
  double apply_flow_decision();

  SimulationConfig cfg_;
  Stack3D stack_;
  ThermalModel3D thermal_;
  PowerModel power_;
  PumpModel pump_;
  std::optional<FlowDelivery> delivery_;
  std::vector<BlockSite> cores_;
  WorkloadGenerator generator_;
  CoreQueues queues_;
  std::unique_ptr<Scheduler> scheduler_;
  FixedTimeoutDpm dpm_;
  std::unique_ptr<ThermalManager> manager_;
  std::function<void(const SampleTrace&)> trace_;
  double last_chip_watts_ = 0.0;
  std::vector<VolumetricFlow> flow_scratch_;  ///< per-tick flow vector scratch

  // -- Run state (reset by init) ---------------------------------------------
  bool initialized_ = false;
  bool mid_tick_ = false;
  std::size_t tick_ = 0;
  std::size_t ticks_ = 0;
  MetricsCollector metrics_;
  EnergyAccountant energy_;
  RunningStats busy_stats_;
  RunningStats setting_stats_;
  RunningStats forecast_err2_;
  RunningStats skew_stats_;
  std::deque<std::pair<std::size_t, double>> pending_forecasts_;
  // Baselines of the lifetime-cumulative counters, snapshotted by init() so
  // a restarted session's result() covers only its own run.
  std::size_t completed_base_ = 0;
  std::size_t migrations_base_ = 0;
  std::size_t pump_transitions_base_ = 0;
  std::size_t valve_transitions_base_ = 0;
  std::size_t rebuilds_base_ = 0;

  // -- Per-tick scratch (allocation-free after warm-up) ----------------------
  SchedulerContext ctx_;
  CoreQueues::TickResult exec_;
  std::vector<double> uniform_weights_;
  std::vector<double> core_temps_;
  std::vector<double> unit_temps_;
  std::vector<double> cavity_tmax_;
};

}  // namespace liquid3d
