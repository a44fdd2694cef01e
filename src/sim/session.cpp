#include "sim/session.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "sim/characterization_cache.hpp"

namespace liquid3d {

const char* to_string(Policy p) {
  switch (p) {
    case Policy::kLoadBalancing: return "LB";
    case Policy::kReactiveMigration: return "Mig";
    case Policy::kTalb: return "TALB";
  }
  return "?";
}

const char* to_string(CoolingMode m) {
  switch (m) {
    case CoolingMode::kAir: return "Air";
    case CoolingMode::kLiquidMax: return "Max";
    case CoolingMode::kLiquidVar: return "Var";
  }
  return "?";
}

std::string policy_label(Policy p, CoolingMode m) {
  return std::string(to_string(p)) + " (" + to_string(m) + ")";
}

StackSpec resolved_stack_spec(const SimulationConfig& cfg) {
  const CoolingType type =
      cfg.cooling == CoolingMode::kAir ? CoolingType::kAir : CoolingType::kLiquid;
  if (cfg.stack.has_value()) {
    validate_stack_spec(*cfg.stack);
    LIQUID3D_REQUIRE(cfg.stack->cooling == type,
                     "stack: spec '" + cfg.stack->name + "' is " +
                         std::string(to_string(cfg.stack->cooling)) +
                         "-cooled but cooling mode '" +
                         std::string(to_string(cfg.cooling)) + "' implies " +
                         std::string(to_string(type)) + " cooling");
    return *cfg.stack;
  }
  LIQUID3D_REQUIRE(cfg.layer_pairs == 1 || cfg.layer_pairs == 2,
                   "layer_pairs: must be 1 (2-layer system) or 2 (4-layer "
                   "system) without an explicit stack spec; got " +
                       std::to_string(cfg.layer_pairs));
  return niagara_stack_spec(cfg.layer_pairs, type);
}

Stack3D make_simulation_stack(const SimulationConfig& cfg) {
  return make_stack(resolved_stack_spec(cfg));
}

namespace {

std::unique_ptr<Scheduler> make_scheduler(const SimulationConfig& cfg) {
  switch (cfg.policy) {
    case Policy::kLoadBalancing: {
      LoadBalancerParams p = cfg.load_balancer;
      if (!cfg.core_bias.empty()) p.core_bias = cfg.core_bias;
      return make_load_balancer(std::move(p));
    }
    case Policy::kReactiveMigration: {
      MigrationParams p = cfg.migration;
      if (!cfg.core_bias.empty()) p.lb.core_bias = cfg.core_bias;
      return make_reactive_migration(std::move(p));
    }
    case Policy::kTalb:
      // TALB balances on *thermal* weights; a static dispatch bias would be
      // silently ignored, so reject it instead of mislabeling the run.
      LIQUID3D_REQUIRE(cfg.core_bias.empty(),
                       "core_bias is not supported by the TALB policy");
      return make_talb(cfg.talb);
  }
  LIQUID3D_ASSERT(false, "unknown policy");
}

}  // namespace

SimulationSession::SimulationSession(SimulationConfig config)
    : cfg_(std::move(config)),
      stack_(make_simulation_stack(cfg_)),
      thermal_(stack_, cfg_.thermal),
      power_(cfg_.power),
      pump_(PumpModel::laing_ddc()),
      cores_(enumerate_sites(stack_, BlockType::kCore)),
      generator_(cfg_.benchmark, enumerate_sites(stack_, BlockType::kCore).size(),
                 cfg_.seed, cfg_.generator),
      queues_(cores_.size()),
      scheduler_(make_scheduler(cfg_)),
      dpm_(cores_.size(), cfg_.dpm),
      metrics_(cores_.size(), cfg_.metrics) {
  LIQUID3D_REQUIRE(cfg_.core_bias.empty() || cfg_.core_bias.size() == cores_.size(),
                   "core_bias arity must equal the system's core count");
  generator_.set_phase_schedule(cfg_.phases);

  const bool liquid = cfg_.cooling != CoolingMode::kAir;
  CharacterizationCache& cache = CharacterizationCache::global();
  if (liquid) {
    const MicrochannelModel channels(stack_.cavity(), cfg_.thermal.coolant,
                                     cfg_.thermal.channel_params);
    delivery_.emplace(pump_, cfg_.delivery_mode, channels, stack_.width(),
                      stack_.cavity_count());

    if (!cfg_.flow_lut) cfg_.flow_lut = cache.flow_lut(cfg_);
    if (!cfg_.talb_weights) {
      cfg_.talb_weights = cfg_.policy == Policy::kTalb
                              ? cache.talb_weights(cfg_)
                              : std::make_shared<const TalbWeightTable>(
                                    TalbWeightTable::uniform(cores_.size()));
    }
    ThermalManagerConfig mc = cfg_.manager;
    mc.variable_flow = cfg_.cooling == CoolingMode::kLiquidVar;
    std::optional<ValveNetwork> valves;
    if (cfg_.manager.valve_network) {
      valves.emplace(*delivery_, cfg_.manager.valves);
    }
    manager_ = std::make_unique<ThermalManager>(*cfg_.flow_lut, *cfg_.talb_weights,
                                                pump_, mc, std::move(valves));
  } else if (!cfg_.talb_weights) {
    cfg_.talb_weights = cfg_.policy == Policy::kTalb
                            ? cache.talb_weights(cfg_)
                            : std::make_shared<const TalbWeightTable>(
                                  TalbWeightTable::uniform(cores_.size()));
  }

  ticks_ = static_cast<std::size_t>(cfg_.duration.as_ms() /
                                    cfg_.sampling_interval.as_ms());
  uniform_weights_.assign(cores_.size(), 1.0);
}

void SimulationSession::apply_power(const std::vector<double>& busy,
                                    const BenchmarkSpec& bench) {
  double mean_busy = 0.0;
  for (double b : busy) mean_busy += b;
  mean_busy /= static_cast<double>(busy.size());

  // Global core index per (layer, block) follows enumerate_sites order.
  std::size_t core_cursor = 0;
  double chip = 0.0;
  for (std::size_t l = 0; l < stack_.layer_count(); ++l) {
    const Floorplan& fp = stack_.layer(l).floorplan;
    std::vector<double> watts(fp.block_count(), 0.0);
    for (std::size_t b = 0; b < fp.block_count(); ++b) {
      const Block& blk = fp.block(b);
      const double t_blk = thermal_.block_mean_temperature(l, b);
      switch (blk.type) {
        case BlockType::kCore: {
          const double core_busy = busy.at(core_cursor);
          const CoreState state =
              core_busy > 0.0 ? CoreState::kActive : dpm_.state(core_cursor);
          watts[b] = power_.core_power(state, core_busy, bench.activity_factor(), t_blk);
          ++core_cursor;
          break;
        }
        case BlockType::kL2Cache:
          watts[b] = power_.l2_power(t_blk);
          break;
        case BlockType::kCrossbar:
          watts[b] = power_.crossbar_power(mean_busy, bench.memory_intensity(), t_blk);
          break;
        case BlockType::kMisc:
          watts[b] = power_.misc_power(blk.rect.area(), t_blk);
          break;
      }
      chip += watts[b];
    }
    thermal_.set_block_power(l, watts);
  }
  last_chip_watts_ = chip;
}

void SimulationSession::read_core_temps(std::vector<double>& out) const {
  out.clear();
  out.reserve(cores_.size());
  for (const BlockSite& site : cores_) {
    out.push_back(thermal_.block_temperature(site.layer, site.block));
  }
}

void SimulationSession::read_unit_temps(std::vector<double>& out) const {
  out.clear();
  for (std::size_t l = 0; l < stack_.layer_count(); ++l) {
    const Floorplan& fp = stack_.layer(l).floorplan;
    for (std::size_t b = 0; b < fp.block_count(); ++b) {
      out.push_back(thermal_.block_temperature(l, b));
    }
  }
}

double SimulationSession::apply_flow_decision() {
  if (!delivery_) return 1.0;
  if (manager_->has_valve_network()) {
    manager_->cavity_flows_into(flow_scratch_);
    thermal_.set_cavity_flow(flow_scratch_);
    const auto [lo, hi] = std::minmax_element(flow_scratch_.begin(), flow_scratch_.end());
    return lo->m3_per_s() > 0.0 ? hi->m3_per_s() / lo->m3_per_s() : 1.0;
  }
  thermal_.set_cavity_flow(
      delivery_->per_cavity(manager_->actuator().effective_setting()));
  return 1.0;
}

void SimulationSession::warm_start() {
  // Initialize from the steady state of the benchmark's average load
  // ("all simulations are initialized with steady state temperature
  // values", Sec. V): the leakage loop from the ambient field.
  const double u = cfg_.benchmark.avg_utilization;
  std::vector<double> busy(cores_.size(), u);
  thermal_.initialize(cfg_.thermal.ambient_temperature);
  if (delivery_) apply_flow_decision();  // valves start uniform
  thermal_.solve_steady_state([&] {
    apply_power(busy, cfg_.benchmark);
    return true;
  });
}

void SimulationSession::init() {
  warm_start();
  tick_ = 0;
  mid_tick_ = false;
  metrics_ = MetricsCollector(cores_.size(), cfg_.metrics);
  energy_.reset();
  busy_stats_.reset();
  setting_stats_.reset();
  forecast_err2_.reset();
  skew_stats_.reset();
  pending_forecasts_.clear();
  // The queues/scheduler/actuator counters are cumulative over the object's
  // lifetime; snapshot them so a re-init()ed session reports only its own
  // run (all zero on the first init, so first-run results are unchanged).
  completed_base_ = queues_.completed_total();
  migrations_base_ = scheduler_->migration_count();
  pump_transitions_base_ = manager_ ? manager_->actuator().transition_count() : 0;
  valve_transitions_base_ = manager_ && manager_->valves()
                                ? manager_->valves()->transition_count()
                                : 0;
  rebuilds_base_ = manager_ ? manager_->predictor().rebuild_count() : 0;
  initialized_ = true;
}

SimTime SimulationSession::now() const {
  return SimTime::from_ms(static_cast<std::int64_t>(tick_) *
                          cfg_.sampling_interval.as_ms());
}

double SimulationSession::substep_dt() const {
  return cfg_.sampling_interval.as_s() / static_cast<double>(cfg_.thermal_substeps);
}

double SimulationSession::current_tmax() const {
  return thermal_.max_temperature();
}

const std::vector<double>& SimulationSession::valve_openings() const {
  static const std::vector<double> kNone;
  return (manager_ && manager_->has_valve_network())
             ? manager_->valves()->effective_openings()
             : kNone;
}

std::size_t SimulationSession::pump_setting() const {
  return manager_ ? manager_->actuator().effective_setting() : 0;
}

std::size_t SimulationSession::phase_index() const {
  const SimTime t = now();
  std::size_t index = 0;
  for (const PhaseChange& phase : cfg_.phases) {
    if (phase.at.as_ms() <= t.as_ms()) ++index;
  }
  return index;
}

void SimulationSession::begin_tick() {
  LIQUID3D_REQUIRE(initialized_, "call init() before stepping a session");
  LIQUID3D_REQUIRE(!mid_tick_, "begin_tick() called twice without finish_tick()");
  LIQUID3D_REQUIRE(!done(), "session already ran its configured duration");
  const SimTime dt = cfg_.sampling_interval;
  const SimTime tick_start = now();

  std::vector<Thread> arrivals = generator_.tick(tick_start, dt);

  ctx_.now = tick_start;
  read_core_temps(ctx_.core_temperature);
  const double tmax_pre =
      *std::max_element(ctx_.core_temperature.begin(), ctx_.core_temperature.end());
  ctx_.thermal_weight = cfg_.policy == Policy::kTalb && cfg_.talb_weights
                            ? cfg_.talb_weights->lookup(tmax_pre)
                            : uniform_weights_;

  scheduler_->manage(queues_, ctx_);
  scheduler_->dispatch(std::move(arrivals), queues_, ctx_);

  exec_ = queues_.execute(dt);
  dpm_.tick(exec_.busy_fraction, dt);
  apply_power(exec_.busy_fraction, cfg_.benchmark);

  if (delivery_) skew_stats_.add(apply_flow_decision());
  mid_tick_ = true;
}

void SimulationSession::finish_tick() {
  LIQUID3D_REQUIRE(mid_tick_, "finish_tick() without a begin_tick()");
  const SimTime dt = cfg_.sampling_interval;
  const double dt_s = dt.as_s();
  const std::size_t horizon = cfg_.manager.predictor.horizon;

  read_core_temps(core_temps_);
  read_unit_temps(unit_temps_);
  const double tmax = *std::max_element(core_temps_.begin(), core_temps_.end());

  double pump_watts = 0.0;
  std::size_t setting = 0;
  if (manager_) {
    if (manager_->has_valve_network()) {
      thermal_.cavity_max_temperatures(cavity_tmax_);
    }
    setting = manager_->update(now() + dt, tmax, cavity_tmax_);
    pump_watts = manager_->actuator().power();
    setting_stats_.add(static_cast<double>(manager_->actuator().effective_setting()));
    if (cfg_.cooling == CoolingMode::kLiquidVar && !cfg_.manager.reactive) {
      pending_forecasts_.emplace_back(tick_ + horizon, manager_->last_forecast());
    }
  }
  while (!pending_forecasts_.empty() && pending_forecasts_.front().first <= tick_) {
    const double err = pending_forecasts_.front().second - tmax;
    forecast_err2_.add(err * err);
    pending_forecasts_.pop_front();
  }

  energy_.add_interval(last_chip_watts_, pump_watts, dt_s);
  metrics_.add_sample(unit_temps_, core_temps_);
  for (double b : exec_.busy_fraction) busy_stats_.add(b);

  if (trace_) {
    SampleTrace t;
    t.now = now() + dt;
    t.tmax = tmax;
    t.forecast = manager_ ? manager_->last_forecast() : tmax;
    t.pump_setting = setting;
    t.flow_ml_per_min =
        delivery_
            ? delivery_->per_cavity(manager_->actuator().effective_setting())
                  .ml_per_min()
            : 0.0;
    t.chip_watts = last_chip_watts_;
    t.pump_watts = pump_watts;
    double mean_busy = 0.0;
    for (double b : exec_.busy_fraction) mean_busy += b;
    t.mean_busy = mean_busy / static_cast<double>(exec_.busy_fraction.size());
    t.queued_threads = queues_.total_queued();
    trace_(t);
  }

  mid_tick_ = false;
  ++tick_;
}

bool SimulationSession::step() {
  if (done()) return false;
  begin_tick();
  const double sub_dt = substep_dt();
  for (std::size_t s = 0; s < cfg_.thermal_substeps; ++s) {
    thermal_.step(sub_dt);
  }
  finish_tick();
  return true;
}

SimulationResult SimulationSession::run() {
  init();
  while (step()) {
  }
  return result();
}

SimulationResult SimulationSession::result() const {
  LIQUID3D_REQUIRE(initialized_, "result() requires an initialized session");
  // Elapsed time in the exact millisecond domain, so a completed session
  // reports the same elapsed_s (and rates) the legacy monolithic run did.
  const double elapsed_s =
      SimTime::from_ms(static_cast<std::int64_t>(tick_) *
                       cfg_.sampling_interval.as_ms())
          .as_s();
  SimulationResult r;
  r.label = cfg_.label.empty() ? policy_label(cfg_.policy, cfg_.cooling) : cfg_.label;
  r.benchmark = cfg_.benchmark.name;
  r.hotspot_percent = metrics_.hotspot_percent();
  r.hotspot_max_sample = metrics_.tmax_stats().max();
  r.above_target_percent = metrics_.above_target_percent();
  r.spatial_gradient_percent = metrics_.spatial_gradient_percent();
  r.thermal_cycles_per_1000 = metrics_.thermal_cycles_per_1000();
  r.avg_tmax = metrics_.tmax_stats().mean();
  r.chip_energy_j = energy_.chip_joules();
  r.pump_energy_j = energy_.pump_joules();
  r.total_energy_j = energy_.total_joules();
  r.throughput_per_s =
      elapsed_s > 0.0
          ? static_cast<double>(queues_.completed_total() - completed_base_) /
                elapsed_s
          : 0.0;
  r.avg_utilization = busy_stats_.mean();
  r.migrations = scheduler_->migration_count() - migrations_base_;
  r.pump_transitions =
      (manager_ ? manager_->actuator().transition_count() : 0) -
      pump_transitions_base_;
  r.valve_transitions = (manager_ && manager_->valves()
                             ? manager_->valves()->transition_count()
                             : 0) -
                        valve_transitions_base_;
  r.avg_flow_skew = skew_stats_.count() > 0 ? skew_stats_.mean() : 1.0;
  r.predictor_rebuilds =
      (manager_ ? manager_->predictor().rebuild_count() : 0) - rebuilds_base_;
  r.forecast_rmse = std::sqrt(forecast_err2_.mean());
  r.avg_pump_setting = setting_stats_.mean();
  r.elapsed_s = elapsed_s;
  return r;
}

}  // namespace liquid3d
