// Reduced-order steady model (serve/rom.hpp) and the exported steady
// operator (thermal/steady_operator.hpp).  The contract under test: reduced
// answers agree with the full steady solver within the error bound across
// cooling modes, stack specs, flow vectors, and boundary references — and
// when a query's bound is tighter than the ROM's error estimate, the
// service falls back to the full path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "geom/stack_spec.hpp"
#include "serve/rom.hpp"
#include "serve/service.hpp"
#include "thermal/model3d.hpp"

namespace liquid3d {
namespace {

ThermalModelParams small_params(std::size_t rows = 8, std::size_t cols = 9) {
  ThermalModelParams p;
  p.grid_rows = rows;
  p.grid_cols = cols;
  return p;
}

/// Zero-shaped [layer][block] power map for a stack.
std::vector<std::vector<double>> zero_watts(const Stack3D& stack) {
  std::vector<std::vector<double>> watts(stack.layer_count());
  for (std::size_t l = 0; l < stack.layer_count(); ++l) {
    watts[l].assign(stack.layer(l).floorplan.block_count(), 0.0);
  }
  return watts;
}

/// Full-solver reference T_max for a power map on a prepared model.
double full_tmax(ThermalModel3D& model,
                 const std::vector<std::vector<double>>& watts) {
  for (std::size_t l = 0; l < watts.size(); ++l) {
    model.set_block_power(l, watts[l]);
  }
  model.solve_steady_state();
  return model.max_temperature();
}

/// A deterministic skewed power pattern (ramp across blocks and layers).
std::vector<std::vector<double>> ramp_watts(const Stack3D& stack) {
  auto watts = zero_watts(stack);
  std::size_t cursor = 0;
  for (auto& layer : watts) {
    for (double& w : layer) {
      w = 0.3 + 0.37 * static_cast<double>(cursor++ % 7);
    }
  }
  return watts;
}

TEST(ServeRom, LiquidMatchesFullAcrossPowerPatterns) {
  ThermalModel3D model(make_niagara_stack(1, CoolingType::kLiquid),
                       small_params());
  model.set_cavity_flow(VolumetricFlow::from_ml_per_min(30.0));
  const ReducedSteadyModel rom = ReducedSteadyModel::build(model, RomParams{});
  EXPECT_GT(rom.dimension(), 1u);
  EXPECT_LT(rom.certified_error_c(), 1e-6);

  auto uniform = zero_watts(model.stack());
  for (auto& layer : uniform) {
    for (double& w : layer) w = 1.5;
  }
  auto hot = zero_watts(model.stack());
  hot[0][2] = 7.0;  // one hot block, everything else idle

  ReducedSteadyModel::Scratch scratch;
  RomEvaluation eval;
  for (const auto& watts : {uniform, hot, ramp_watts(model.stack())}) {
    const double reference = full_tmax(model, watts);
    rom.evaluate(watts, model.params().inlet_temperature, 0.0, scratch, eval);
    EXPECT_TRUE(eval.within_bound);
    EXPECT_NEAR(eval.t_max_c, reference, 1e-6);
    EXPECT_EQ(eval.layer_max_c.size(), model.stack().layer_count());
  }
}

TEST(ServeRom, SuperpositionMatchesFullToSolverPrecision) {
  // The liquid steady path is one direct solve, so the superposed influence
  // solutions reproduce the full answer to solver precision — per layer,
  // not just at the peak.
  ThermalModel3D model(make_niagara_stack(1, CoolingType::kLiquid),
                       small_params());
  model.set_cavity_flow(VolumetricFlow::from_ml_per_min(30.0));
  const ReducedSteadyModel rom = ReducedSteadyModel::build(model, RomParams{});
  EXPECT_EQ(rom.dimension(), 1 + model.stack().layer(0).floorplan.block_count() +
                                 model.stack().layer(1).floorplan.block_count());

  auto uniform = zero_watts(model.stack());
  for (auto& layer : uniform) {
    for (double& w : layer) w = 1.5;
  }
  auto hot = zero_watts(model.stack());
  hot[0][2] = 7.0;

  ReducedSteadyModel::Scratch scratch;
  RomEvaluation eval;
  const std::size_t layers = model.stack().layer_count();
  for (const auto& watts : {uniform, hot, ramp_watts(model.stack())}) {
    const double reference = full_tmax(model, watts);
    ThermalState state;
    model.save_state(state);
    std::vector<double> layer_max(layers, -1e300);
    for (std::size_t i = 0; i < state.temps.size(); ++i) {
      layer_max[i % layers] = std::max(layer_max[i % layers], state.temps[i]);
    }
    rom.evaluate(watts, model.params().inlet_temperature, 0.0, scratch, eval);
    EXPECT_TRUE(eval.within_bound);
    EXPECT_NEAR(eval.t_max_c, reference, 1e-9);
    ASSERT_EQ(eval.layer_max_c.size(), layers);
    for (std::size_t l = 0; l < layers; ++l) {
      EXPECT_NEAR(eval.layer_max_c[l], layer_max[l], 1e-9);
    }
  }
}

TEST(ServeRom, AirMatchesFull) {
  ThermalModel3D model(make_niagara_stack(1, CoolingType::kAir), small_params());
  const ReducedSteadyModel rom = ReducedSteadyModel::build(model, RomParams{});

  const auto watts = ramp_watts(model.stack());
  const double reference = full_tmax(model, watts);
  ReducedSteadyModel::Scratch scratch;
  RomEvaluation eval;
  rom.evaluate(watts, model.params().ambient_temperature, 0.0, scratch, eval);
  EXPECT_TRUE(eval.within_bound);
  // The air steady state is one direct solve, so the snapshots and the
  // reference agree to rounding, as the liquid ones do.
  EXPECT_NEAR(eval.t_max_c, reference, 1e-9);
}

TEST(ServeRom, SkewedFlowVectorMatchesFull) {
  ThermalModel3D model(make_niagara_stack(1, CoolingType::kLiquid),
                       small_params());
  std::vector<VolumetricFlow> flows;
  for (std::size_t c = 0; c < model.stack().cavity_count(); ++c) {
    flows.push_back(VolumetricFlow::from_ml_per_min(
        12.0 + 14.0 * static_cast<double>(c)));
  }
  model.set_cavity_flow(flows);
  const ReducedSteadyModel rom = ReducedSteadyModel::build(model, RomParams{});

  const auto watts = ramp_watts(model.stack());
  const double reference = full_tmax(model, watts);
  ReducedSteadyModel::Scratch scratch;
  RomEvaluation eval;
  rom.evaluate(watts, model.params().inlet_temperature, 0.0, scratch, eval);
  EXPECT_TRUE(eval.within_bound);
  EXPECT_NEAR(eval.t_max_c, reference, 1e-6);
}

TEST(ServeRom, BoundaryReferenceIsAffineExact) {
  // Build the ROM at inlet 30 C, query at 45 C: the constant basis vector
  // makes the reference affine-exact, so the answer must match a model
  // *parameterized* at 45 C.
  ThermalModelParams p30 = small_params();
  p30.inlet_temperature = 30.0;
  ThermalModel3D model30(make_niagara_stack(1, CoolingType::kLiquid), p30);
  model30.set_cavity_flow(VolumetricFlow::from_ml_per_min(25.0));
  const ReducedSteadyModel rom = ReducedSteadyModel::build(model30, RomParams{});

  ThermalModelParams p45 = small_params();
  p45.inlet_temperature = 45.0;
  ThermalModel3D model45(make_niagara_stack(1, CoolingType::kLiquid), p45);
  model45.set_cavity_flow(VolumetricFlow::from_ml_per_min(25.0));
  const auto watts = ramp_watts(model45.stack());
  const double reference = full_tmax(model45, watts);

  ReducedSteadyModel::Scratch scratch;
  RomEvaluation eval;
  rom.evaluate(watts, 45.0, 0.0, scratch, eval);
  EXPECT_TRUE(eval.within_bound);
  EXPECT_NEAR(eval.t_max_c, reference, 1e-6);
}

// -- Through the service across stack specs ----------------------------------

SimulationConfig small_config(CoolingMode cooling) {
  SimulationConfig cfg;
  cfg.cooling = cooling;
  cfg.thermal = small_params();
  return cfg;
}

void expect_rom_matches_full(ThermalService& service, const SteadyQuery& base) {
  SteadyQuery q = base;
  q.force_full = false;
  const SteadyAnswer reduced = service.steady(q);
  q.force_full = true;
  const SteadyAnswer full = service.steady(q);
  ASSERT_TRUE(reduced.used_rom);
  EXPECT_FALSE(full.used_rom);
  EXPECT_NEAR(reduced.t_max_c, full.t_max_c,
              std::max(reduced.estimated_error_c, 1e-6));
}

TEST(ServeRom, FourLayerPresetThroughService) {
  ThermalService service;
  SteadyQuery q;
  q.config = small_config(CoolingMode::kLiquidMax);
  q.config.layer_pairs = 2;  // 4-layer Niagara system
  q.core_watts = 2.0;
  expect_rom_matches_full(service, q);
}

TEST(ServeRom, StackFileSpecThroughService) {
  ThermalService service;
  SteadyQuery q;
  q.config = small_config(CoolingMode::kLiquidMax);
  // CMake runs tests from the build directory; the examples live one up.
  const std::string root = std::filesystem::exists("examples/stacks")
                               ? "examples/stacks"
                               : "../examples/stacks";
  q.config.stack = load_stack_file(root + "/asym-3die.stack");
  q.core_watts = 2.5;
  expect_rom_matches_full(service, q);

  // Skewed valve-steered flow on the same stack file.
  SteadyQuery skew = q;
  skew.valve_openings.assign(
      make_simulation_stack(q.config).cavity_count(), 1.0);
  skew.valve_openings.front() = 0.35;
  expect_rom_matches_full(service, skew);
}

TEST(ServeRom, AirThroughService) {
  ThermalService service;
  SteadyQuery q;
  q.config = small_config(CoolingMode::kAir);
  q.core_watts = 2.0;
  SteadyQuery full = q;
  full.force_full = true;
  const SteadyAnswer reduced = service.steady(q);
  const SteadyAnswer exact = service.steady(full);
  ASSERT_TRUE(reduced.used_rom);
  EXPECT_NEAR(reduced.t_max_c, exact.t_max_c, 1e-9);
}

TEST(ServeRom, FallbackOnBoundViolation) {
  // A query whose bound sits below the ROM's own error estimate must be
  // answered through the full solver instead.
  ThermalService service;

  SteadyQuery q;
  q.config = small_config(CoolingMode::kLiquidMax);
  const Stack3D stack = make_simulation_stack(q.config);
  q.block_watts = zero_watts(stack);
  q.block_watts[0][1] = 6.0;

  const SteadyAnswer reduced = service.steady(q);
  ASSERT_TRUE(reduced.used_rom);
  ASSERT_GT(reduced.estimated_error_c, 0.0);
  q.max_error_c = 0.5 * reduced.estimated_error_c;

  const SteadyAnswer answer = service.steady(q);
  EXPECT_FALSE(answer.used_rom);  // fell back
  const ServeStats stats = service.stats();
  EXPECT_GE(stats.rom_fallbacks, 1u);
  EXPECT_GE(stats.full_solves, 1u);

  // The fallback answer is the full solver's.
  SteadyQuery forced = q;
  forced.force_full = true;
  EXPECT_EQ(answer.t_max_c, service.steady(forced).t_max_c);
}

TEST(ServeRom, CacheEvictionUnderLoad) {
  ServeParams params;
  params.rom_cache_capacity = 2;
  ThermalService service(params);

  SteadyQuery q;
  q.config = small_config(CoolingMode::kLiquidMax);
  const std::size_t cavities = make_simulation_stack(q.config).cavity_count();

  // Three distinct flow vectors = three ROM keys through a 2-entry cache.
  const double levels[3] = {15.0, 25.0, 40.0};
  double tmax[3];
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 3; ++i) {
      q.flows_ml_per_min.assign(cavities, levels[i]);
      const SteadyAnswer a = service.steady(q);
      ASSERT_TRUE(a.used_rom);
      if (round == 0) {
        tmax[i] = a.t_max_c;
      } else {
        // A rebuilt-after-eviction ROM answers identically.
        EXPECT_DOUBLE_EQ(a.t_max_c, tmax[i]);
      }
    }
  }
  const ServeStats stats = service.stats();
  EXPECT_GE(stats.rom_evictions, 1u);
  EXPECT_GT(stats.rom_builds, 3u);  // at least one rebuild after eviction
}

}  // namespace
}  // namespace liquid3d
