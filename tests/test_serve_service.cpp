// ThermalService (serve/service.hpp) and its query queue (serve/queue.hpp).
// Contracts under test: asynchronous what-if/replay answers are bit-identical
// to solo SimulationSession runs of the same cell, same-topology queries
// that pile up behind a running batch share the next one, a queue worker's
// later batches solve through the factors its earlier ones built, malformed
// queries fail fast through the future, a revisited steady flow solves
// through its pooled factor with the answer of a fresh model — at any
// boundary reference — and the session's service-facing const accessors
// report what a server needs without touching internals.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/error.hpp"
#include "common/identity_key.hpp"
#include "coolant/flow.hpp"
#include "coolant/microchannel.hpp"
#include "coolant/pump.hpp"
#include "coolant/valve_network.hpp"
#include "geom/stack_spec.hpp"
#include "obs/metrics.hpp"
#include "serve/net/envelope.hpp"
#include "serve/queue.hpp"
#include "serve/service.hpp"
#include "sim/characterization_cache.hpp"
#include "sim/session.hpp"
#include "thermal_test_access.hpp"

namespace liquid3d {
namespace {

/// Small-grid what-if cell: fast enough for a unit test, full-fidelity in
/// every other respect.
WhatIfQuery small_whatif(std::uint64_t seed) {
  WhatIfQuery q;
  q.scenario = "talb-var";
  q.benchmark = "Web-med";
  q.duration_s = 2.0;
  q.seed = seed;
  q.grid_rows = 8;
  q.grid_cols = 9;
  return q;
}

void expect_bit_identical(const SimulationResult& a, const SimulationResult& b) {
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.benchmark, b.benchmark);
  EXPECT_EQ(a.hotspot_percent, b.hotspot_percent);
  EXPECT_EQ(a.hotspot_max_sample, b.hotspot_max_sample);
  EXPECT_EQ(a.above_target_percent, b.above_target_percent);
  EXPECT_EQ(a.spatial_gradient_percent, b.spatial_gradient_percent);
  EXPECT_EQ(a.thermal_cycles_per_1000, b.thermal_cycles_per_1000);
  EXPECT_EQ(a.avg_tmax, b.avg_tmax);
  EXPECT_EQ(a.chip_energy_j, b.chip_energy_j);
  EXPECT_EQ(a.pump_energy_j, b.pump_energy_j);
  EXPECT_EQ(a.total_energy_j, b.total_energy_j);
  EXPECT_EQ(a.throughput_per_s, b.throughput_per_s);
  EXPECT_EQ(a.avg_utilization, b.avg_utilization);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.pump_transitions, b.pump_transitions);
  EXPECT_EQ(a.valve_transitions, b.valve_transitions);
  EXPECT_EQ(a.avg_flow_skew, b.avg_flow_skew);
  EXPECT_EQ(a.predictor_rebuilds, b.predictor_rebuilds);
  EXPECT_EQ(a.forecast_rmse, b.forecast_rmse);
  EXPECT_EQ(a.avg_pump_setting, b.avg_pump_setting);
}

TEST(ServeService, WhatIfBitIdenticalToSoloSession) {
  ThermalService service;
  const WhatIfQuery q = small_whatif(11);
  const SessionOutcome outcome = service.what_if(q).get();
  EXPECT_TRUE(outcome.trace.empty());
  expect_bit_identical(outcome.result,
                       SimulationSession(ThermalService::session_config(q)).run());
}

TEST(ServeService, ConcurrentWhatIfsShareLockstepBatches) {
  // A free worker starts a job at once.  Once it has taken the first (a
  // long session), the four submitted while it runs wait for it and then
  // go together as the next batch.
  ServeParams params;
  params.queue.max_batch = 8;
  ThermalService service(params);

  std::vector<WhatIfQuery> queries;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) queries.push_back(small_whatif(seed));
  queries[0].duration_s = 300.0;
  std::vector<std::future<SessionOutcome>> futures;
  futures.push_back(service.what_if(queries[0]));
  while (service.stats().batches == 0) std::this_thread::yield();
  for (std::size_t i = 1; i < queries.size(); ++i) {
    futures.push_back(service.what_if(queries[i]));
  }
  EXPECT_EQ(futures[0].wait_for(std::chrono::seconds(0)), std::future_status::timeout);
  std::vector<SessionOutcome> outcomes;
  for (auto& f : futures) outcomes.push_back(f.get());

  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.session_queries, 5u);
  EXPECT_EQ(stats.batched_sessions, 5u);
  EXPECT_EQ(stats.batches, 2u);   // same topology => grouped, not serial
  EXPECT_EQ(stats.max_batch, 4u);
  EXPECT_EQ(stats.solo_fallbacks, 0u);

  // Batched answers are the solo answers, bitwise.
  for (std::size_t i = 0; i < queries.size(); ++i) {
    expect_bit_identical(outcomes[i].result,
                         SimulationSession(ThermalService::session_config(queries[i])).run());
  }
}

TEST(ServeQueue, SequentialBatchesReuseTheWorkersFactors) {
  // One-session batches, one after another, through one queue worker: a
  // repeat of the first job finds every factor it needs in the worker's
  // cache, and answers exactly as a fresh queue does.
  const obs::ScopedEnabled obs_on(true);
  const auto submit = [](QueryQueue& queue, std::uint64_t seed) {
    SessionJob job;
    job.cfg = ThermalService::session_config(small_whatif(seed));
    return queue.submit(std::move(job));
  };
  QueryQueue queue;
  const std::uint64_t before = factorization_count();
  (void)submit(queue, 1).get();
  EXPECT_GT(factorization_count(), before);  // a cold cache
  const std::uint64_t warm = factorization_count();
  const SessionOutcome repeat = submit(queue, 1).get();
  EXPECT_EQ(factorization_count() - warm, 0u);
  EXPECT_EQ(queue.batches(), 2u);

  QueryQueue fresh;
  expect_bit_identical(repeat.result, submit(fresh, 1).get().result);
}

TEST(ServeService, ReplayAppliesPhasesAndTraces) {
  ThermalService service;
  ReplayQuery q;
  q.base = small_whatif(5);
  q.base.duration_s = 3.0;
  q.phases = {{SimTime::from_s(1.0), 0.25}, {SimTime::from_s(2.0), 1.0}};
  q.trace_period_s = 0.5;

  const SessionOutcome outcome = service.replay(q).get();
  // 3 s at a 0.5 s trace period: six samples, strictly increasing time.
  ASSERT_GE(outcome.trace.size(), 5u);
  for (std::size_t i = 1; i < outcome.trace.size(); ++i) {
    EXPECT_GT(outcome.trace[i].now.as_ms(), outcome.trace[i - 1].now.as_ms());
  }

  SimulationConfig cfg = ThermalService::session_config(q.base);
  cfg.phases = q.phases;
  expect_bit_identical(outcome.result, SimulationSession(cfg).run());
}

TEST(ServeService, UnknownNamesFailFastThroughFuture) {
  ThermalService service;
  WhatIfQuery bad_scenario = small_whatif(1);
  bad_scenario.scenario = "no-such-scenario";
  EXPECT_THROW(service.what_if(bad_scenario).get(), ConfigError);

  WhatIfQuery bad_benchmark = small_whatif(1);
  bad_benchmark.benchmark = "no-such-benchmark";
  EXPECT_THROW(service.what_if(bad_benchmark).get(), ConfigError);

  // The queue stays usable after rejected submissions.
  EXPECT_NO_THROW(service.what_if(small_whatif(2)).get());
}

TEST(ServeService, SteadyQueryValidation) {
  ThermalService service;
  SteadyQuery q;
  q.config.cooling = CoolingMode::kLiquidMax;
  q.config.thermal.grid_rows = 8;
  q.config.thermal.grid_cols = 9;

  SteadyQuery bad_flow_arity = q;
  bad_flow_arity.flows_ml_per_min = {10.0};  // cavity count is > 1
  EXPECT_THROW((void)service.steady(bad_flow_arity), ConfigError);

  SteadyQuery negative_power = q;
  negative_power.core_watts = -1.0;
  EXPECT_THROW((void)service.steady(negative_power), ConfigError);

  SteadyQuery air_with_flows = q;
  air_with_flows.config.cooling = CoolingMode::kAir;
  air_with_flows.flows_ml_per_min = {10.0, 10.0, 10.0};
  EXPECT_THROW((void)service.steady(air_with_flows), ConfigError);
}

/// A liquid stack with inline blocks, so every spec field can be perturbed
/// without leaving the valid set.
StackSpec inline_spec() {
  StackSpec spec;
  spec.name = "inline-2die";
  spec.cooling = CoolingType::kLiquid;
  spec.die_width = 10e-3;
  spec.die_height = 8e-3;
  for (std::size_t l = 0; l < 2; ++l) {
    StackLayerEntry layer;
    layer.blocks.push_back({"core0", BlockType::kCore, Rect{0.0, 0.0, 4e-3, 4e-3}});
    layer.blocks.push_back({"misc0", BlockType::kMisc, Rect{5e-3, 0.0, 4e-3, 4e-3}});
    spec.layers.push_back(layer);
  }
  spec.cavities = {CavitySpec{}};
  return spec;
}

/// Perturbs field `index` of a parameter struct through its visit_fields
/// table (doubles x1.01, integers +1, bools flipped);
/// returns the field's name, empty past the last field.
template <class Params>
std::string perturb_field(Params& params, std::size_t index) {
  std::string name;
  std::size_t i = 0;
  visit_fields(params, [&](const char* field_name, auto& field) {
    using F = std::remove_reference_t<decltype(field)>;
    if (i++ != index) return;
    name = field_name;
    if constexpr (std::is_same_v<F, bool>) {
      field = !field;
    } else if constexpr (std::is_same_v<F, double>) {
      field *= 1.01;
    } else {
      field += 1;
    }
  });
  return name;
}

TEST(ServeService, SteadyKeysCoverEveryIdentityField) {
  SteadyQuery base;
  base.config.cooling = CoolingMode::kLiquidMax;
  base.config.stack = inline_spec();
  const std::string key = ThermalService::steady_key(base);
  EXPECT_EQ(ThermalService::steady_key(base), key);
  const std::string lut = CharacterizationCache::flow_lut_key(base.config);
  const std::string talb = CharacterizationCache::talb_key(base.config);

  // Every ThermalModelParams field moves every key, except the two boundary
  // references, which enter neither the ROM nor the pooled model's factor
  // (each query sets them), and crosses the wire bit for bit.
  std::size_t thermal_fields = 0;
  for (SteadyQuery q = base;; q = base, ++thermal_fields) {
    const std::string name = perturb_field(q.config.thermal, thermal_fields);
    if (name.empty()) break;
    SCOPED_TRACE(name);
    EXPECT_EQ(ThermalService::steady_key(q) == key,
              name == "inlet_temperature" || name == "ambient_temperature");
    EXPECT_NE(CharacterizationCache::flow_lut_key(q.config), lut);
    EXPECT_NE(CharacterizationCache::talb_key(q.config), talb);
    std::string sent, received;
    append_fields(sent, q.config.thermal);
    const WireRequest wire = decode_request(encode_request(1, 0.0, q));
    append_fields(received, std::get<SteadyQuery>(wire.payload).config.thermal);
    EXPECT_EQ(received, sent);
  }
  EXPECT_EQ(thermal_fields, 22u);

  // Every PowerModelParams field moves both characterization keys.
  std::size_t power_fields = 0;
  for (SimulationConfig cfg = base.config;; cfg = base.config, ++power_fields) {
    const std::string name = perturb_field(cfg.power, power_fields);
    if (name.empty()) break;
    EXPECT_NE(CharacterizationCache::flow_lut_key(cfg), lut) << name;
    EXPECT_NE(CharacterizationCache::talb_key(cfg), talb) << name;
  }
  EXPECT_EQ(power_fields, 14u);

  using Perturb = void (*)(SteadyQuery&);
  const auto both_change = [&](const char* field, Perturb perturb) {
    SteadyQuery q = base;
    perturb(q);
    EXPECT_NE(ThermalService::steady_key(q), key) << field;
  };
  // Every StackSpec field.
  both_change("name", [](SteadyQuery& q) { q.config.stack->name += "-b"; });
  both_change("die_width", [](SteadyQuery& q) { q.config.stack->die_width *= 1.01; });
  both_change("die_height", [](SteadyQuery& q) { q.config.stack->die_height *= 1.01; });
  both_change("layers", [](SteadyQuery& q) {
    q.config.stack->layers.push_back(q.config.stack->layers.back());
  });
  both_change("layers[].blocks", [](SteadyQuery& q) {
    q.config.stack->layers[1].blocks.pop_back();
  });
  both_change("layers[].blocks[].name",
              [](SteadyQuery& q) { q.config.stack->layers[1].blocks[0].name = "core9"; });
  both_change("layers[].blocks[].type", [](SteadyQuery& q) {
    q.config.stack->layers[1].blocks[0].type = BlockType::kL2Cache;
  });
  both_change("layers[].blocks[].rect.x",
              [](SteadyQuery& q) { q.config.stack->layers[1].blocks[1].rect.x += 1e-4; });
  both_change("layers[].blocks[].rect.y",
              [](SteadyQuery& q) { q.config.stack->layers[1].blocks[1].rect.y += 1e-4; });
  both_change("layers[].blocks[].rect.w",
              [](SteadyQuery& q) { q.config.stack->layers[1].blocks[1].rect.w -= 1e-4; });
  both_change("layers[].blocks[].rect.h",
              [](SteadyQuery& q) { q.config.stack->layers[1].blocks[1].rect.h -= 1e-4; });
  both_change("layers[].die_thickness",
              [](SteadyQuery& q) { q.config.stack->layers[0].die_thickness *= 1.01; });
  both_change("layers[].beol_thickness",
              [](SteadyQuery& q) { q.config.stack->layers[0].beol_thickness *= 1.01; });
  both_change("cavities", [](SteadyQuery& q) {
    q.config.stack->cavities.assign(q.config.stack->layers.size() + 1, CavitySpec{});
  });
  both_change("cavities[].channel_count",
              [](SteadyQuery& q) { q.config.stack->cavities[0].channel_count += 1; });
  both_change("cavities[].channel_width",
              [](SteadyQuery& q) { q.config.stack->cavities[0].channel_width *= 0.99; });
  both_change("cavities[].channel_height",
              [](SteadyQuery& q) { q.config.stack->cavities[0].channel_height *= 1.01; });
  both_change("cavities[].wall_thickness",
              [](SteadyQuery& q) { q.config.stack->cavities[0].wall_thickness *= 1.01; });
  both_change("cavities[].pitch",
              [](SteadyQuery& q) { q.config.stack->cavities[0].pitch *= 1.01; });
  both_change("cavities[].cavity_thickness",
              [](SteadyQuery& q) { q.config.stack->cavities[0].cavity_thickness *= 1.01; });
  both_change("tsvs.count", [](SteadyQuery& q) { q.config.stack->tsvs.count += 1; });
  both_change("tsvs.side", [](SteadyQuery& q) { q.config.stack->tsvs.side *= 1.01; });
  both_change("tsvs.cu_conductivity",
              [](SteadyQuery& q) { q.config.stack->tsvs.cu_conductivity *= 1.01; });

  // Cooling (mode and spec agree) and the delivery mode.
  both_change("cooling", [](SteadyQuery& q) {
    q.config.cooling = CoolingMode::kAir;
    q.config.stack->cooling = CoolingType::kAir;
    q.config.stack->cavities.clear();
  });
  both_change("delivery_mode", [](SteadyQuery& q) {
    q.config.delivery_mode = FlowDeliveryMode::kPaperNominal;
  });

  // A floorplan preset name (on the preset spec, whose layers name presets).
  SteadyQuery preset = base;
  preset.config.stack = niagara_stack_spec(1, CoolingType::kLiquid);
  SteadyQuery swapped = preset;
  std::swap(swapped.config.stack->layers[0].floorplan,
            swapped.config.stack->layers[1].floorplan);
  EXPECT_NE(ThermalService::steady_key(swapped), ThermalService::steady_key(preset));

  // A reference override moves no key.
  SteadyQuery reference = base;
  reference.reference_c = 30.0;
  EXPECT_EQ(ThermalService::steady_key(reference), key);
  // Both liquid modes build the same steady model.
  SteadyQuery var = base;
  var.config.cooling = CoolingMode::kLiquidVar;
  EXPECT_EQ(ThermalService::steady_key(var), key);

  // The flow moves it: a pooled model holds one flow vector's factor.
  SteadyQuery lower = base;
  lower.pump_setting = 1;
  EXPECT_NE(ThermalService::steady_key(lower), key);
  SteadyQuery valves = base;
  valves.valve_openings = {1.0, 0.6, 0.8};
  EXPECT_NE(ThermalService::steady_key(valves), key);

  // A Niagara preset and its equal explicit spec are one system.
  SteadyQuery by_pairs;
  by_pairs.config.cooling = CoolingMode::kLiquidMax;
  by_pairs.config.layer_pairs = 2;
  SteadyQuery by_spec = by_pairs;
  by_spec.config.stack = niagara_stack_spec(2, CoolingType::kLiquid);
  EXPECT_EQ(ThermalService::steady_key(by_pairs), ThermalService::steady_key(by_spec));
}

/// The answer a freshly built model gives at `flows`, shaped like the
/// service's: T_max and per-layer maxima over the silicon field.
SteadyAnswer fresh_full_answer(const SimulationConfig& cfg,
                               const std::vector<VolumetricFlow>& flows,
                               double core_watts) {
  ThermalModel3D model(make_simulation_stack(cfg), cfg.thermal);
  if (!flows.empty()) model.set_cavity_flow(flows);
  const Stack3D& stack = model.stack();
  for (std::size_t l = 0; l < stack.layer_count(); ++l) {
    const Floorplan& fp = stack.layer(l).floorplan;
    std::vector<double> w(fp.block_count(), 0.0);
    for (std::size_t b = 0; b < fp.block_count(); ++b) {
      if (fp.block(b).type == BlockType::kCore) w[b] = core_watts;
    }
    model.set_block_power(l, w);
  }
  model.solve_steady_state();
  SteadyAnswer answer;
  answer.t_max_c = model.max_temperature();
  const std::size_t layers = stack.layer_count();
  answer.layer_max_c.assign(layers, -1e300);
  const std::span<const double> temps = model.temperatures();
  for (std::size_t i = 0; i < temps.size(); ++i) {
    answer.layer_max_c[i % layers] = std::max(answer.layer_max_c[i % layers], temps[i]);
  }
  return answer;
}

TEST(ServeService, RevisitedFlowSolvesThroughItsPooledFactor) {
  const obs::ScopedEnabled obs_on(true);
  // Room for the three warm flows and the ROM's: a fallback that built a
  // model of its own would evict one.
  ServeParams params;
  params.model_pool_capacity = 4;
  ThermalService service(params);
  SteadyQuery base;
  base.config.cooling = CoolingMode::kLiquidMax;
  base.config.thermal.grid_rows = 8;
  base.config.thermal.grid_cols = 9;
  base.force_full = true;

  // Two pump settings and one valve vector, with the flows an independent
  // resolution gives them.
  const SimulationConfig& cfg = base.config;
  const StackSpec spec = niagara_stack_spec(1, CoolingType::kLiquid);
  const std::size_t cavities = spec.layers.size() + 1;
  const FlowDelivery delivery(
      PumpModel::laing_ddc(), cfg.delivery_mode,
      MicrochannelModel(spec.cavities.front(), cfg.thermal.coolant,
                        cfg.thermal.channel_params),
      spec.die_width, cavities);
  const std::size_t top = delivery.setting_count() - 1;
  std::vector<SteadyQuery> keys(3, base);
  std::vector<std::vector<VolumetricFlow>> flows(3);
  flows[0].assign(cavities, delivery.per_cavity(top));
  keys[1].pump_setting = 1;
  flows[1].assign(cavities, delivery.per_cavity(1));
  keys[2].valve_openings = {1.0, 0.6, 0.8};
  flows[2] = ValveNetwork(delivery).flows(top, keys[2].valve_openings);
  for (const SteadyQuery& q : keys) (void)service.steady(q);

  // Revisits, alternating among the warm keys, factorize nothing.
  std::vector<SteadyAnswer> answers;
  const std::uint64_t warm = factorization_count();
  for (std::size_t i = 0; i < 9; ++i) {
    SteadyQuery q = keys[i % 3];
    q.core_watts = 1.0 + 0.25 * static_cast<double>(i);
    answers.push_back(service.steady(q));
  }
  EXPECT_EQ(factorization_count(), warm);
  EXPECT_EQ(service.stats().model_evictions, 0u);
  for (std::size_t i = 0; i < answers.size(); ++i) {
    SCOPED_TRACE(i);
    const SteadyAnswer fresh =
        fresh_full_answer(cfg, flows[i % 3], 1.0 + 0.25 * static_cast<double>(i));
    EXPECT_FALSE(answers[i].used_rom);
    EXPECT_EQ(answers[i].t_max_c, fresh.t_max_c);
    EXPECT_EQ(answers[i].layer_max_c, fresh.layer_max_c);
  }

  // A ROM's build leaves its flow's model pooled without its band: the
  // first fallback at that flow factorizes once, later ones not at all.
  SteadyQuery rom_query = base;
  rom_query.force_full = false;
  rom_query.pump_setting = 2;
  rom_query.max_error_c = 1e-12;
  service.warm(rom_query);
  const SteadyAnswer fresh = fresh_full_answer(
      cfg, std::vector<VolumetricFlow>(cavities, delivery.per_cavity(2)),
      rom_query.core_watts);
  const std::uint64_t fallbacks = service.stats().rom_fallbacks;
  for (const std::uint64_t factorized : {1u, 0u}) {
    const std::uint64_t before = factorization_count();
    const SteadyAnswer fallback = service.steady(rom_query);
    EXPECT_EQ(factorization_count() - before, factorized);
    EXPECT_FALSE(fallback.used_rom);
    EXPECT_EQ(fallback.t_max_c, fresh.t_max_c);
    EXPECT_EQ(fallback.layer_max_c, fresh.layer_max_c);
  }
  EXPECT_EQ(service.stats().rom_fallbacks, fallbacks + 2);
  EXPECT_EQ(service.stats().model_evictions, 0u);
}

TEST(ServeService, ReferenceOverrideReusesThePooledFactor) {
  // A warm pooled model answers a query at another boundary reference —
  // the inlet of a liquid stack, the ambient of an air one — through the
  // factor it holds, with the answer of a model built at that reference.
  const obs::ScopedEnabled obs_on(true);
  for (const CoolingMode cooling : {CoolingMode::kLiquidMax, CoolingMode::kAir}) {
    const bool liquid = cooling != CoolingMode::kAir;
    SCOPED_TRACE(liquid ? "liquid" : "air");
    ThermalService service;
    SteadyQuery q;
    q.config.cooling = cooling;
    q.config.thermal.grid_rows = 8;
    q.config.thermal.grid_cols = 9;
    q.force_full = true;
    q.core_watts = 2.0;
    (void)service.steady(q);
    std::vector<VolumetricFlow> flows;
    if (liquid) {
      const StackSpec spec = niagara_stack_spec(1, CoolingType::kLiquid);
      const FlowDelivery delivery(
          PumpModel::laing_ddc(), q.config.delivery_mode,
          MicrochannelModel(spec.cavities.front(), q.config.thermal.coolant,
                            q.config.thermal.channel_params),
          spec.die_width, spec.layers.size() + 1);
      flows.assign(spec.layers.size() + 1,
                   delivery.per_cavity(delivery.setting_count() - 1));
    }
    for (const double reference : {30.0, 52.5, 45.0}) {
      SCOPED_TRACE(reference);
      q.reference_c = reference;
      const std::uint64_t before = factorization_count();
      const SteadyAnswer answer = service.steady(q);
      EXPECT_EQ(factorization_count() - before, 0u);
      SimulationConfig at_reference = q.config;
      (liquid ? at_reference.thermal.inlet_temperature
              : at_reference.thermal.ambient_temperature) = reference;
      const SteadyAnswer fresh = fresh_full_answer(at_reference, flows, q.core_watts);
      EXPECT_EQ(answer.t_max_c, fresh.t_max_c);
      EXPECT_EQ(answer.layer_max_c, fresh.layer_max_c);
    }
    EXPECT_EQ(service.stats().model_evictions, 0u);
  }
}

// -- Session const-inspection surface (service-facing accessors) --------------

TEST(ServeSession, ConstAccessorsExposeServiceState) {
  SimulationConfig cfg = ThermalService::session_config(small_whatif(3));
  cfg.phases = {{SimTime::from_s(1.0), 0.5}};
  SimulationSession session(cfg);
  const SimulationSession& view = session;

  session.init();
  EXPECT_EQ(view.phase_index(), 0u);
  EXPECT_GT(view.current_tmax(), cfg.thermal.inlet_temperature);
  EXPECT_EQ(view.current_tmax(), view.thermal().max_temperature());
  // talb-var steers the pump but has no valve network: empty openings.
  EXPECT_TRUE(view.valve_openings().empty());
  EXPECT_LT(view.pump_setting(), 100u);

  while (session.step()) {
  }
  // All phases fired by the end of the run.
  EXPECT_EQ(view.phase_index(), cfg.phases.size());
  EXPECT_EQ(view.current_tmax(), view.thermal().max_temperature());
}

}  // namespace
}  // namespace liquid3d
