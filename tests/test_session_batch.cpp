// Steppable session + batch runner (sim/session.hpp, sim/batch_runner.hpp)
// and the factor sharing between linked models it relies on
// (ThermalModel3D::share_factors_with).  The core guarantee under test:
// batching never changes results — a BatchRunner of many sessions (air
// groups factorizing once per dt between them, liquid models borrowing a
// groupmate's LU slot at an equal flow vector, models at one key solving
// in one multi-right-hand-side sweep, slices on a thread pool) is
// bit-identical to serial SimulationSession::run() calls.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "sim/batch_runner.hpp"
#include "sim/experiment.hpp"
#include "thermal/model3d.hpp"
#include "thermal_test_access.hpp"

namespace liquid3d {
namespace {

ThermalModelParams small_params(std::size_t rows = 8, std::size_t cols = 9) {
  ThermalModelParams p;
  p.grid_rows = rows;
  p.grid_cols = cols;
  return p;
}

std::unique_ptr<ThermalModel3D> make_loaded_model(double core_watts,
                                                  double flow_ml,
                                                  CoolingType cooling) {
  auto m = std::make_unique<ThermalModel3D>(make_niagara_stack(1, cooling),
                                            small_params());
  if (cooling == CoolingType::kLiquid) {
    m->set_cavity_flow(VolumetricFlow::from_ml_per_min(flow_ml));
  }
  const Floorplan& fp = m->stack().layer(0).floorplan;
  std::vector<double> watts(fp.block_count(), 0.0);
  for (std::size_t b = 0; b < fp.block_count(); ++b) {
    if (fp.block(b).type == BlockType::kCore) watts[b] = core_watts;
  }
  m->set_block_power(0, watts);
  m->initialize(45.0);
  return m;
}

TEST(FactorSharing, LockstepIsBitIdenticalToSerialSteps) {
  // Eight linked models with different power maps, per cooling type, each
  // stepping itself in lockstep.  Liquid models differ in flow too, so each
  // factorizes its own slot; the air group factorizes once and the other
  // seven borrow that slot.  Every answer equals an unlinked serial run.
  constexpr std::size_t kModels = 8;
  constexpr std::uint64_t kTicks = 25;
  const obs::ScopedEnabled obs_on(true);
  obs::Counter& borrowed =
      obs::Registry::global().counter("liquid3d_solver_borrowed_factors_total");
  for (const CoolingType cooling : {CoolingType::kLiquid, CoolingType::kAir}) {
    const bool liquid = cooling == CoolingType::kLiquid;
    SCOPED_TRACE(liquid ? "liquid" : "air");
    std::vector<std::unique_ptr<ThermalModel3D>> batched;
    std::vector<std::unique_ptr<ThermalModel3D>> serial;
    std::vector<ThermalModel3D*> ptrs;
    for (std::size_t i = 0; i < kModels; ++i) {
      const double watts = 1.0 + 0.4 * static_cast<double>(i);
      const double flow = 8.0 + 5.0 * static_cast<double>(i);
      batched.push_back(make_loaded_model(watts, flow, cooling));
      serial.push_back(make_loaded_model(watts, flow, cooling));
      ptrs.push_back(batched.back().get());
    }
    for (ThermalModel3D* m : ptrs) m->share_factors_with(ptrs);

    const std::uint64_t factorizations = factorization_count();
    const std::uint64_t borrowed_before = borrowed.value();
    for (std::uint64_t tick = 0; tick < kTicks; ++tick) {
      for (ThermalModel3D* m : ptrs) m->step(0.05);
    }
    EXPECT_EQ(factorization_count() - factorizations, liquid ? kModels : 1u);
    EXPECT_EQ(borrowed.value() - borrowed_before,
              liquid ? 0u : kTicks * (kModels - 1));
    for (auto& m : serial) {
      for (std::uint64_t tick = 0; tick < kTicks; ++tick) m->step(0.05);
    }

    for (std::size_t i = 0; i < kModels; ++i) {
      for (std::size_t l = 0; l < batched[i]->layer_count(); ++l) {
        for (std::size_t c = 0; c < batched[i]->grid().cell_count(); ++c) {
          ASSERT_EQ(batched[i]->cell_temperature(l, c),
                    serial[i]->cell_temperature(l, c))
              << "model " << i << " layer " << l << " cell " << c;
        }
      }
      if (liquid) {
        EXPECT_EQ(batched[i]->fluid_outlet_temperature(1),
                  serial[i]->fluid_outlet_temperature(1));
      } else {
        EXPECT_EQ(batched[i]->sink_temperature(), serial[i]->sink_temperature());
      }
    }
  }
}

TEST(FactorSharing, RejectsMismatchedTopologies) {
  auto liquid = make_loaded_model(2.0, 20.0, CoolingType::kLiquid);
  auto air = make_loaded_model(2.0, 0.0, CoolingType::kAir);
  EXPECT_NE(liquid->topology_fingerprint(), air->topology_fingerprint());
  std::vector<ThermalModel3D*> mixed = {liquid.get(), air.get()};
  EXPECT_THROW(air->share_factors_with(mixed), ConfigError);
  EXPECT_THROW(liquid->share_factors_with(mixed), ConfigError);
}

// -- Session / batch-runner parity -------------------------------------------

/// A fast liquid cell; the characterization is shared process-wide through
/// CharacterizationCache::global(), so only the first build pays.
SimulationConfig session_config(std::uint64_t seed, const char* workload,
                                CoolingMode cooling = CoolingMode::kLiquidMax) {
  SimulationConfig cfg;
  cfg.benchmark = *find_benchmark(workload);
  cfg.cooling = cooling;
  cfg.policy = Policy::kLoadBalancing;
  cfg.duration = SimTime::from_s(3);
  cfg.seed = seed;
  cfg.thermal.grid_rows = 8;
  cfg.thermal.grid_cols = 9;
  return cfg;
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
  EXPECT_EQ(a.elapsed_s, b.elapsed_s);
}

TEST(SimulationSession, HandSteppedLoopMatchesSimulatorRun) {
  const SimulationResult via_run = SimulationSession(session_config(3, "Web-med")).run();

  SimulationSession s(session_config(3, "Web-med"));
  EXPECT_FALSE(s.initialized());
  s.init();
  EXPECT_TRUE(s.initialized());
  EXPECT_EQ(s.tick_count(), 30u);  // 3 s / 100 ms
  std::size_t steps = 0;
  while (!s.done()) {
    // Decomposed form of step(): pre-thermal, substeps, post-thermal.
    s.begin_tick();
    for (std::size_t k = 0; k < s.substep_count(); ++k) {
      s.thermal().step(s.substep_dt());
    }
    s.finish_tick();
    ++steps;
    // Mid-run state is inspectable.
    EXPECT_GT(s.chip_watts(), 0.0);
    EXPECT_EQ(s.busy_fraction().size(), s.core_count());
    EXPECT_GT(s.thermal().max_temperature(), 40.0);
  }
  EXPECT_EQ(steps, 30u);
  EXPECT_FALSE(s.step());  // stepping past the end is a no-op
  expect_bit_identical(s.result(), via_run);
}

TEST(SimulationSession, StepRequiresInit) {
  SimulationSession s(session_config(4, "gzip"));
  EXPECT_THROW(s.begin_tick(), ConfigError);
  EXPECT_THROW((void)s.result(), ConfigError);
}

TEST(SimulationSession, MidRunResultIsPartialAggregate) {
  SimulationSession s(session_config(5, "Web-med"));
  s.init();
  for (int i = 0; i < 10; ++i) s.step();
  const SimulationResult mid = s.result();
  EXPECT_DOUBLE_EQ(mid.elapsed_s, 1.0);  // 10 ticks x 100 ms
  EXPECT_GT(mid.chip_energy_j, 0.0);
  while (s.step()) {
  }
  const SimulationResult full = s.result();
  EXPECT_DOUBLE_EQ(full.elapsed_s, 3.0);
  EXPECT_GT(full.chip_energy_j, mid.chip_energy_j);
}

TEST(SimulationSession, ReinitReportsOnlyTheCurrentRun) {
  SimulationSession s(session_config(6, "Web-med"));
  const SimulationResult first = s.run();
  // Restart: aggregates reset, cumulative counters re-baselined — the
  // second result must cover only the second run (not report doubled
  // throughput/migration counts from the object's lifetime).
  const SimulationResult second = s.run();
  EXPECT_DOUBLE_EQ(second.elapsed_s, first.elapsed_s);
  EXPECT_GT(second.throughput_per_s, 0.0);
  EXPECT_LT(second.throughput_per_s, 1.5 * first.throughput_per_s);
  EXPECT_GT(second.chip_energy_j, 0.0);
  EXPECT_LT(second.chip_energy_j, 1.5 * first.chip_energy_j);
}

TEST(BatchRunner, EightSessionsBitIdenticalToSerialRuns) {
  // Eight cells differing in workload, seed, and policy/cooling knobs that
  // keep one shared topology (all liquid, same grid/stack/dt).
  const char* workloads[] = {"Web-med", "Web-high", "gzip",    "Database",
                             "Web&DB",  "gcc",      "MPlayer", "MPlayer&Web"};
  std::vector<SimulationResult> serial;
  BatchRunner batch;
  for (std::size_t i = 0; i < 8; ++i) {
    SimulationConfig cfg = session_config(100 + i, workloads[i]);
    serial.push_back(SimulationSession(cfg).run());
    batch.add(cfg);
  }
  obs::Counter& borrowed =
      obs::Registry::global().counter("liquid3d_solver_borrowed_factors_total");
  const std::uint64_t borrowed_before = borrowed.value();
  const std::vector<SimulationResult> batched = batch.run();
  ASSERT_EQ(batched.size(), 8u);
  EXPECT_EQ(batch.group_count(), 1u);  // one lockstep group
  // Liquid sessions at an equal flow vector solve through one factor: the
  // lead's own slot or a groupmate's.
  EXPECT_GT(borrowed.value(), borrowed_before);
  for (std::size_t i = 0; i < 8; ++i) {
    SCOPED_TRACE(workloads[i]);
    expect_bit_identical(batched[i], serial[i]);
  }

  // An air group's operator depends on dt alone: its groupmates share the
  // lead's LU slot, so the group factorizes once per dt — the steady warm
  // start's 1/dt = 0 and the transient substep — not once per cell.
  std::vector<SimulationResult> air_serial;
  BatchRunner air_batch;
  for (std::size_t i = 0; i < 3; ++i) {
    SimulationConfig cfg = session_config(200 + i, workloads[i], CoolingMode::kAir);
    air_serial.push_back(SimulationSession(cfg).run());
    air_batch.add(cfg);
  }
  const obs::ScopedEnabled obs_on(true);
  const std::uint64_t air_factorizations = factorization_count();
  const std::uint64_t air_borrowed = borrowed.value();
  const std::vector<SimulationResult> air_batched = air_batch.run();
  ASSERT_EQ(air_batched.size(), 3u);
  EXPECT_EQ(air_batch.group_count(), 1u);
  EXPECT_EQ(factorization_count() - air_factorizations, 2u);
  EXPECT_GT(borrowed.value(), air_borrowed);
  for (std::size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE(workloads[i]);
    expect_bit_identical(air_batched[i], air_serial[i]);
  }
}

TEST(BatchRunner, AirPackageMatchesSerial) {
  // The package state (spreader and sink, updated explicitly after each
  // step) of every batched air session equals its serial twin's.
  BatchRunner batch;
  std::vector<std::unique_ptr<SimulationSession>> serial;
  const char* workloads[] = {"gzip", "Web-high", "MPlayer"};
  for (std::size_t i = 0; i < 3; ++i) {
    const SimulationConfig cfg =
        session_config(300 + i, workloads[i], CoolingMode::kAir);
    batch.add(cfg);
    serial.push_back(std::make_unique<SimulationSession>(cfg));
  }
  const auto results = batch.run();
  ASSERT_EQ(results.size(), 3u);
  ThermalState batched_state;
  ThermalState serial_state;
  for (std::size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE(workloads[i]);
    SimulationSession& s = *serial[i];
    expect_bit_identical(results[i], s.run());
    batch.session(i).thermal().save_state(batched_state);
    s.thermal().save_state(serial_state);
    EXPECT_EQ(batched_state.spreader_temp, serial_state.spreader_temp);
    EXPECT_EQ(batched_state.sink_temp, serial_state.sink_temp);
    EXPECT_EQ(batched_state.temps, serial_state.temps);
  }
}

TEST(BatchRunner, MixedDurationsDropFinishedSessionsFromLockstep) {
  BatchRunner batch;
  SimulationConfig short_cfg = session_config(7, "gzip");
  short_cfg.duration = SimTime::from_s(1);
  SimulationConfig long_cfg = session_config(8, "Web-med");
  long_cfg.duration = SimTime::from_s(2);
  batch.add(short_cfg);
  batch.add(long_cfg);

  const SimulationResult short_serial = SimulationSession(short_cfg).run();
  const SimulationResult long_serial = SimulationSession(long_cfg).run();
  const auto results = batch.run();
  ASSERT_EQ(results.size(), 2u);
  expect_bit_identical(results[0], short_serial);
  expect_bit_identical(results[1], long_serial);
}

TEST(BatchRunner, PooledSlicesMatchSerial) {
  // All seven paper scenarios over three workloads, scenario-major as
  // ExperimentSuite lays them out, on two workers: the four-cell slices
  // mix air and liquid cells, LB/Mig/TALB (Max) cells at one flow key, and
  // TALB (Var) cells whose flows change mid-run and differ between cells.
  // Every field of every cell equals a solo run.  Ten simulated seconds:
  // the variable-flow controller's first pump moves come after a few.
  SuiteConfig sc;
  sc.duration = SimTime::from_s(10);
  sc.base.thermal.grid_rows = 8;
  sc.base.thermal.grid_cols = 9;
  ExperimentSuite suite(sc);
  const std::vector<ScenarioSpec> scenarios = paper_scenario_grid();
  ASSERT_EQ(scenarios.size(), 7u);
  const char* workloads[] = {"Web-med", "Database", "Web&DB"};
  std::vector<SimulationConfig> cells;
  for (const ScenarioSpec& s : scenarios) {
    for (const char* w : workloads) cells.push_back(suite.make_config(s, *find_benchmark(w)));
  }
  ThreadPool pool(2);
  const std::vector<SimulationResult> pooled = BatchRunner::run_sliced(cells, pool);
  ASSERT_EQ(pooled.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE(pooled[i].label + " / " + pooled[i].benchmark);
    expect_bit_identical(pooled[i], SimulationSession(cells[i]).run());
  }
  // The TALB (Var) cells are the last three: their pump moved during the
  // run, and not in step across cells.
  const SimulationResult* var = &pooled[cells.size() - 3];
  ASSERT_EQ(var[0].label, "TALB (Var)");
  EXPECT_GT(var[0].pump_transitions + var[1].pump_transitions + var[2].pump_transitions,
            0u);
  EXPECT_TRUE(var[0].avg_pump_setting != var[1].avg_pump_setting ||
              var[1].avg_pump_setting != var[2].avg_pump_setting);
}

TEST(BatchRunner, SliceAtOneKeyFactorizesOncePerKey) {
  // Four LB (Max) cells hold the top pump setting throughout: one slice,
  // two keys (the steady warm start's 1/dt = 0 and the substep's), so two
  // factorizations, and every substep is one four-column sweep.
  const obs::ScopedEnabled obs_on(true);
  obs::Histogram& rhs_per_solve =
      obs::Registry::global().histogram("liquid3d_batch_rhs_per_solve");
  BatchRunner batch;
  const char* workloads[] = {"Web-med", "gzip", "Database", "MPlayer"};
  for (std::size_t i = 0; i < BatchRunner::kSliceSessions; ++i) {
    batch.add(session_config(400 + i, workloads[i]));
  }
  const std::uint64_t factorizations = factorization_count();
  const std::uint64_t sweeps = rhs_per_solve.count();
  const double columns = rhs_per_solve.sum();
  (void)batch.run();
  EXPECT_EQ(factorization_count() - factorizations, 2u);
  const std::uint64_t new_sweeps = rhs_per_solve.count() - sweeps;
  EXPECT_GT(new_sweeps, 0u);
  EXPECT_EQ(rhs_per_solve.sum() - columns,
            static_cast<double>(new_sweeps * BatchRunner::kSliceSessions));
}

TEST(BatchRunner, IncompatibleTopologiesFormSeparateGroups) {
  BatchRunner batch;
  batch.add(session_config(9, "gzip"));                         // liquid
  SimulationConfig air = session_config(10, "gzip", CoolingMode::kAir);
  air.policy = Policy::kLoadBalancing;
  batch.add(air);                                               // air package
  SimulationConfig coarse = session_config(11, "gzip");
  coarse.thermal.grid_rows = 6;
  coarse.thermal.grid_cols = 7;
  batch.add(coarse);                                            // other grid
  const auto results = batch.run();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(batch.group_count(), 3u);
  for (const SimulationResult& r : results) EXPECT_GT(r.avg_tmax, 40.0);
}

}  // namespace
}  // namespace liquid3d
