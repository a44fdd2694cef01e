#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <span>
#include <utility>

#include "common/error.hpp"
#include "common/identity_key.hpp"
#include "coolant/flow.hpp"
#include "coolant/pump.hpp"
#include "coolant/valve_network.hpp"
#include "geom/stack_spec.hpp"
#include "sim/scenario.hpp"
#include "workload/benchmarks.hpp"

namespace liquid3d {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_us(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Everything that shapes a pooled model's steady operator except the
/// boundary references: the resolved stack spec (whose cooling type agrees
/// with the config's — resolved_stack_spec checks it, and the liquid modes
/// build one model), the delivery mode, and every ThermalModelParams field
/// with the references zeroed.  Stack presets enter as their spec, so a
/// preset and its equal explicit spec share entries.
std::string system_identity(const StackSpec& spec, const SimulationConfig& cfg) {
  std::string key;
  key.reserve(512);
  append_bits(key, spec.name);
  append_bits(key, spec.cooling);
  append_bits(key, spec.die_width);
  append_bits(key, spec.die_height);
  append_bits(key, spec.layers.size());
  for (const StackLayerEntry& layer : spec.layers) {
    append_bits(key, layer.floorplan);
    append_bits(key, layer.blocks.size());
    for (const BlockEntry& b : layer.blocks) {
      append_bits(key, b.name);
      append_bits(key, b.type);
      append_bits(key, b.rect.x);
      append_bits(key, b.rect.y);
      append_bits(key, b.rect.w);
      append_bits(key, b.rect.h);
    }
    append_bits(key, layer.die_thickness);
    append_bits(key, layer.beol_thickness);
  }
  append_bits(key, spec.cavities.size());
  for (const CavitySpec& c : spec.cavities) {
    append_bits(key, c.channel_count);
    append_bits(key, c.channel_width);
    append_bits(key, c.channel_height);
    append_bits(key, c.wall_thickness);
    append_bits(key, c.pitch);
    append_bits(key, c.cavity_thickness);
  }
  append_bits(key, spec.tsvs.count);
  append_bits(key, spec.tsvs.side);
  append_bits(key, spec.tsvs.cu_conductivity);
  append_bits(key, cfg.delivery_mode);

  ThermalModelParams t = cfg.thermal;
  t.inlet_temperature = 0.0;
  t.ambient_temperature = 0.0;
  append_fields(key, t);
  return key;
}

/// ROM and pool identity: the system plus the per-cavity flow vector the
/// operator is exported under.  The references stay out — the reduced model
/// answers any inlet/ambient exactly (the steady map is affine in the
/// reference), and the full model takes them per query (set_references).
std::string steady_identity(std::string identity, const std::vector<VolumetricFlow>& flows) {
  for (VolumetricFlow f : flows) append_bits(identity, f.m3_per_s());
  return identity;
}

/// Point a pooled model at a query's boundary references.  Neither enters
/// the model's factor, so its LU slot stays fitted, and the answer is the
/// one a model built at these references gives.
void set_references(ThermalModel3D& model, const ThermalModelParams& t) {
  model.set_inlet_temperature(t.inlet_temperature);
  model.set_ambient_temperature(t.ambient_temperature);
}

/// Expand a query's power specification to full [layer][block] shape.
std::vector<std::vector<double>> resolve_watts(const SteadyQuery& q,
                                               const BlockLayout& layout) {
  std::vector<std::vector<double>> watts(layout.size());
  for (std::size_t l = 0; l < layout.size(); ++l) {
    watts[l].assign(layout[l].size(), 0.0);
  }
  if (q.block_watts.empty()) {
    LIQUID3D_REQUIRE(std::isfinite(q.core_watts) && q.core_watts >= 0.0,
                     "steady query core_watts must be finite and >= 0");
    for (std::size_t l = 0; l < layout.size(); ++l) {
      for (std::size_t b = 0; b < layout[l].size(); ++b) {
        if (layout[l][b] == BlockType::kCore) watts[l][b] = q.core_watts;
      }
    }
    return watts;
  }
  LIQUID3D_REQUIRE(q.block_watts.size() <= layout.size(),
                   "steady query has more power layers than the stack");
  for (std::size_t l = 0; l < q.block_watts.size(); ++l) {
    LIQUID3D_REQUIRE(q.block_watts[l].size() <= watts[l].size(),
                     "steady query has more blocks than the layer's floorplan");
    for (std::size_t b = 0; b < q.block_watts[l].size(); ++b) {
      const double w = q.block_watts[l][b];
      LIQUID3D_REQUIRE(std::isfinite(w) && w >= 0.0,
                       "steady query block power must be finite and >= 0");
      watts[l][b] = w;
    }
  }
  return watts;
}

/// Resolve the query's flow specification to a per-cavity vector (empty for
/// air).  Precedence: explicit flows > valve openings > uniform delivery.
/// The spec is validated, so a liquid one has a uniform cavity entry and the
/// die width is the channel length.
std::vector<VolumetricFlow> resolve_flows(const SimulationConfig& cfg,
                                          const SteadyQuery& q,
                                          const StackSpec& spec) {
  if (spec.cooling == CoolingType::kAir) {
    LIQUID3D_REQUIRE(q.flows_ml_per_min.empty() && q.valve_openings.empty(),
                     "air configurations take no flow specification");
    return {};
  }
  const std::size_t cavities = spec.layers.size() + 1;
  if (!q.flows_ml_per_min.empty()) {
    LIQUID3D_REQUIRE(q.flows_ml_per_min.size() == cavities,
                     "explicit flow arity must equal the cavity count");
    std::vector<VolumetricFlow> flows;
    flows.reserve(cavities);
    for (double ml : q.flows_ml_per_min) {
      LIQUID3D_REQUIRE(std::isfinite(ml) && ml > 0.0,
                       "per-cavity flows must be finite and > 0 ml/min");
      flows.push_back(VolumetricFlow::from_ml_per_min(ml));
    }
    return flows;
  }
  const MicrochannelModel channels(spec.cavities.front(), cfg.thermal.coolant,
                                   cfg.thermal.channel_params);
  const FlowDelivery delivery(PumpModel::laing_ddc(), cfg.delivery_mode,
                              channels, spec.die_width, cavities);
  const std::size_t setting = q.pump_setting == SteadyQuery::kTopSetting
                                  ? delivery.setting_count() - 1
                                  : q.pump_setting;
  LIQUID3D_REQUIRE(setting < delivery.setting_count(),
                   "pump setting out of range");
  if (!q.valve_openings.empty()) {
    LIQUID3D_REQUIRE(q.valve_openings.size() == cavities,
                     "valve opening arity must equal the cavity count");
    const ValveNetwork network(delivery);
    return network.flows(setting, q.valve_openings);
  }
  return std::vector<VolumetricFlow>(cavities, delivery.per_cavity(setting));
}

}  // namespace

ThermalService::ThermalService(ServeParams params)
    : params_(params),
      models_(params.model_pool_capacity, &model_evictions_),
      roms_(params.rom_cache_capacity, &rom_evictions_),
      queue_(params.queue) {
  LIQUID3D_REQUIRE(params_.model_pool_capacity >= 1,
                   "model pool capacity must be >= 1");
  LIQUID3D_REQUIRE(params_.rom_cache_capacity >= 1,
                   "ROM cache capacity must be >= 1");
}

ThermalService::~ThermalService() { queue_.stop(); }

/// A steady query resolved once: its spec, flows and reference, and the
/// (system, flow) identity both caches key on.
struct ThermalService::ResolvedQuery {
  StackSpec spec;
  std::vector<VolumetricFlow> flows;
  /// The ROM and pool key.
  std::string flow_identity;
  /// The config's thermal parameters with the query's reference applied.
  ThermalModelParams thermal;
  double t_ref = 0.0;

  explicit ResolvedQuery(const SteadyQuery& q)
      : spec(resolved_stack_spec(q.config)),
        flows(resolve_flows(q.config, q, spec)),
        flow_identity(steady_identity(system_identity(spec, q.config), flows)),
        thermal(q.config.thermal) {
    double& reference = spec.cooling == CoolingType::kAir
                            ? thermal.ambient_temperature
                            : thermal.inlet_temperature;
    if (q.reference_c) reference = *q.reference_c;
    t_ref = reference;
  }
};

std::shared_ptr<ThermalService::ModelEntry> ThermalService::model_for(
    const ResolvedQuery& resolved) {
  return models_.get(resolved.flow_identity, [&] {
    return std::make_shared<ModelEntry>(make_stack(resolved.spec), resolved.thermal);
  });
}

std::shared_ptr<const ReducedSteadyModel> ThermalService::rom_for(
    const SteadyQuery& query, const ResolvedQuery& resolved) {
  return roms_.get(resolved.flow_identity, [&] {
    // Built through the pooled entry of the ROM's own flow, so a fallback at
    // that flow constructs no model, and at the config's own references
    // (the reference override is applied at evaluation).  The entry keeps
    // its model but not the LU band the snapshot solves factored: the ROM
    // answers without it, and a band per ROM key would grow a warm ROM
    // service by ~1 MB per 2-layer flow.  A fallback refactorizes once, then
    // keeps the band.
    const std::shared_ptr<ModelEntry> entry = model_for(resolved);
    std::shared_ptr<const ReducedSteadyModel> rom;
    {
      std::lock_guard<std::mutex> entry_lock(entry->mu);
      ThermalModel3D& model = entry->model;
      if (!resolved.flows.empty()) model.set_cavity_flow(resolved.flows);
      set_references(model, query.config.thermal);
      rom = std::make_shared<const ReducedSteadyModel>(
          ReducedSteadyModel::build(model, params_.rom));
      model.free_factor();
    }
    rom_builds_.add();
    return rom;
  });
}

SteadyAnswer ThermalService::full_steady(const SteadyQuery& query,
                                         const ResolvedQuery& resolved) {
  // The entry's flow is the query's, so on a warm entry set_cavity_flow is
  // a no-op and the solve reuses the factor, whatever the references.
  const std::shared_ptr<ModelEntry> entry = model_for(resolved);
  SteadyAnswer answer;
  std::lock_guard<std::mutex> lock(entry->mu);
  ThermalModel3D& model = entry->model;
  if (!resolved.flows.empty()) model.set_cavity_flow(resolved.flows);
  set_references(model, resolved.thermal);
  const std::vector<std::vector<double>> watts =
      resolve_watts(query, block_layout(model.stack()));
  for (std::size_t l = 0; l < watts.size(); ++l) {
    model.set_block_power(l, watts[l]);
  }
  model.solve_steady_state();
  full_solves_.add();
  answer.t_max_c = model.max_temperature();
  const std::size_t layers = model.stack().layer_count();
  const std::span<const double> temps = model.temperatures();
  answer.layer_max_c.assign(layers, -1e300);
  for (std::size_t i = 0; i < temps.size(); ++i) {
    const std::size_t layer = i % layers;
    answer.layer_max_c[layer] = std::max(answer.layer_max_c[layer], temps[i]);
  }
  return answer;
}

SteadyAnswer ThermalService::steady(const SteadyQuery& query) {
  // Latency distributions by path (shared across service instances; the
  // references are resolved once, so the steady hot path never takes the
  // registry lock).
  static obs::Histogram& rom_seconds =
      obs::Registry::global().histogram("liquid3d_serve_steady_rom_seconds");
  static obs::Histogram& full_seconds =
      obs::Registry::global().histogram("liquid3d_serve_steady_full_seconds");
  const auto start = Clock::now();
  steady_queries_.add();
  const ResolvedQuery resolved(query);

  if (!query.force_full) {
    const std::shared_ptr<const ReducedSteadyModel> rom = rom_for(query, resolved);
    thread_local ReducedSteadyModel::Scratch scratch;
    RomEvaluation eval;
    rom->evaluate(resolve_watts(query, rom->layout()), resolved.t_ref,
                  query.max_error_c, scratch, eval);
    if (eval.within_bound) {
      rom_hits_.add();
      SteadyAnswer answer;
      answer.t_max_c = eval.t_max_c;
      answer.layer_max_c = std::move(eval.layer_max_c);
      answer.used_rom = true;
      answer.estimated_error_c = eval.estimated_error_c;
      answer.certified_error_c = rom->certified_error_c();
      answer.rom_dimension = rom->dimension();
      answer.elapsed_us = elapsed_us(start);
      rom_seconds.record(answer.elapsed_us * 1e-6);
      return answer;
    }
    rom_fallbacks_.add();
  }
  SteadyAnswer answer = full_steady(query, resolved);
  answer.elapsed_us = elapsed_us(start);
  full_seconds.record(answer.elapsed_us * 1e-6);
  return answer;
}

void ThermalService::warm(const SteadyQuery& query) {
  (void)rom_for(query, ResolvedQuery(query));
}

std::string ThermalService::steady_key(const SteadyQuery& query) {
  return ResolvedQuery(query).flow_identity;
}

SimulationConfig ThermalService::session_config(const WhatIfQuery& query) {
  SimulationConfig cfg;
  cfg.layer_pairs = query.layer_pairs;
  if (query.stack) cfg.stack = *query.stack;
  const ScenarioSpec& spec = ScenarioRegistry::global().at(query.scenario);
  apply_scenario(spec, cfg);
  const std::optional<BenchmarkSpec> bench = find_benchmark(query.benchmark);
  LIQUID3D_REQUIRE(bench.has_value(), "unknown benchmark: " + query.benchmark);
  cfg.benchmark = *bench;
  LIQUID3D_REQUIRE(query.duration_s > 0.0, "what-if duration must be > 0");
  cfg.duration = SimTime::from_s(query.duration_s);
  cfg.seed = query.seed;
  if (query.grid_rows > 0) cfg.thermal.grid_rows = query.grid_rows;
  if (query.grid_cols > 0) cfg.thermal.grid_cols = query.grid_cols;
  return cfg;
}

std::uint64_t ThermalService::topology_key(const SimulationConfig& cfg) {
  std::uint64_t h = stack_fingerprint(make_simulation_stack(cfg));
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(cfg.thermal.grid_rows);
  mix(cfg.thermal.grid_cols);
  mix(cfg.thermal_substeps);
  mix(static_cast<std::uint64_t>(cfg.sampling_interval.as_ms()));
  mix(static_cast<std::uint64_t>(cfg.cooling));
  return h;
}

std::future<SessionOutcome> ThermalService::submit_session(
    const WhatIfQuery& query, const std::vector<PhaseChange>& phases,
    double trace_period_s) {
  SessionJob job;
  try {
    job.cfg = session_config(query);
  } catch (...) {
    // Fail fast: malformed names surface through the future immediately,
    // without occupying the queue.
    std::promise<SessionOutcome> failed;
    failed.set_exception(std::current_exception());
    return failed.get_future();
  }
  job.cfg.phases = phases;
  job.group_key = topology_key(job.cfg);
  job.trace_period_s = trace_period_s;
  session_queries_.add();
  return queue_.submit(std::move(job));
}

std::future<SessionOutcome> ThermalService::what_if(const WhatIfQuery& query) {
  return submit_session(query, {}, 0.0);
}

std::future<SessionOutcome> ThermalService::replay(const ReplayQuery& query) {
  return submit_session(query.base, query.phases, query.trace_period_s);
}

void ThermalService::wait_idle() { queue_.wait_idle(); }

ServeStats ThermalService::stats() const {
  ServeStats s;
  s.steady_queries = steady_queries_.value();
  s.rom_hits = rom_hits_.value();
  s.rom_builds = rom_builds_.value();
  s.rom_fallbacks = rom_fallbacks_.value();
  s.rom_evictions = rom_evictions_.value();
  s.full_solves = full_solves_.value();
  s.model_evictions = model_evictions_.value();
  s.session_queries = session_queries_.value();
  s.batches = queue_.batches();
  s.batched_sessions = queue_.batched_sessions();
  s.max_batch = queue_.max_batch_seen();
  s.solo_fallbacks = queue_.solo_fallbacks();
  return s;
}

}  // namespace liquid3d
