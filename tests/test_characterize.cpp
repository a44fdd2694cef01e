// Steady-state characterization harness (control/characterize.hpp) on a
// small grid: the physical monotonicities every LUT build depends on, and
// the leakage loop (ThermalModel3D::solve_steady_state) that every harness
// answer and session warm start runs: its answers against the same loop
// run to 1e-10 K, their independence of visit order, and its runaway
// status and reset.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "control/characterize.hpp"
#include "control/flow_lut.hpp"
#include "obs/metrics.hpp"
#include "sim/session.hpp"
#include "workload/benchmarks.hpp"

namespace liquid3d {
namespace {

ThermalModelParams small_grid() {
  ThermalModelParams p;
  p.grid_rows = 10;
  p.grid_cols = 11;
  return p;
}

CharacterizationHarness make_liquid_harness() {
  return CharacterizationHarness(make_2layer_system(), small_grid(), PowerModelParams{},
                                 PumpModel::laing_ddc(),
                                 FlowDeliveryMode::kPressureLimited);
}

TEST(Characterize, TmaxMonotoneInUtilization) {
  CharacterizationHarness h = make_liquid_harness();
  double prev = 0.0;
  for (double u : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const double t = h.steady_tmax(u, 3);
    EXPECT_GT(t, prev) << "u=" << u;
    prev = t;
  }
}

TEST(Characterize, TmaxMonotoneDecreasingInSetting) {
  CharacterizationHarness h = make_liquid_harness();
  double prev = 1e9;
  for (std::size_t s = 0; s < h.setting_count(); ++s) {
    const double t = h.steady_tmax(0.6, s);
    EXPECT_LT(t, prev) << "setting " << s;
    prev = t;
  }
}

TEST(Characterize, CoreTempsHaveExpectedArity) {
  CharacterizationHarness h = make_liquid_harness();
  const std::vector<double> temps = h.steady_core_temps(0.5, 2);
  EXPECT_EQ(temps.size(), 8u);  // 2-layer system: 8 cores
  for (double t : temps) {
    EXPECT_GT(t, 45.0);
    EXPECT_LT(t, 200.0);
  }
}

TEST(Characterize, MinFlowBisectionBracketsTarget) {
  CharacterizationHarness h = make_liquid_harness();
  const VolumetricFlow lo = VolumetricFlow::from_ml_per_min(1.0);
  const VolumetricFlow hi = VolumetricFlow::from_ml_per_min(40.0);
  const VolumetricFlow f = h.min_flow_for_target(0.5, 80.0, lo, hi);
  // The found flow meets the target...
  EXPECT_LE(h.steady_tmax_at_flow(0.5, f), 80.5);
  // ...and is minimal: 10 % less flow violates it (unless already at lo).
  if (f > lo * 1.05) {
    EXPECT_GT(h.steady_tmax_at_flow(0.5, f * 0.9), 79.5);
  }
}

TEST(Characterize, MinFlowSaturatesWhenTargetUnreachable) {
  CharacterizationHarness h = make_liquid_harness();
  const VolumetricFlow lo = VolumetricFlow::from_ml_per_min(0.5);
  const VolumetricFlow hi = VolumetricFlow::from_ml_per_min(1.0);
  // Full load cannot be cooled to 50 C by ~1 ml/min: returns hi.
  const VolumetricFlow f = h.min_flow_for_target(1.0, 50.0, lo, hi);
  EXPECT_EQ(f.ml_per_min(), hi.ml_per_min());
}

TEST(Characterize, HigherUtilizationNeedsMoreFlow) {
  CharacterizationHarness h = make_liquid_harness();
  const VolumetricFlow lo = VolumetricFlow::from_ml_per_min(1.0);
  const VolumetricFlow hi = VolumetricFlow::from_ml_per_min(40.0);
  const double f_low = h.min_flow_for_target(0.2, 80.0, lo, hi).ml_per_min();
  const double f_high = h.min_flow_for_target(0.9, 80.0, lo, hi).ml_per_min();
  EXPECT_GT(f_high, f_low);
}

TEST(Characterize, AirHarnessWorksWithoutPump) {
  CharacterizationHarness h(make_2layer_system(CoolingType::kAir), small_grid(),
                            PowerModelParams{});
  EXPECT_EQ(h.setting_count(), 1u);
  const double t_low = h.steady_tmax(0.2, 0);
  const double t_high = h.steady_tmax(0.9, 0);
  EXPECT_GT(t_high, t_low);
  EXPECT_THROW((void)h.steady_tmax(0.5, 1), ConfigError);
}

TEST(Characterize, LiquidConstructorRejectsAirStack) {
  EXPECT_THROW(CharacterizationHarness(make_2layer_system(CoolingType::kAir),
                                       small_grid(), PowerModelParams{},
                                       PumpModel::laing_ddc(),
                                       FlowDeliveryMode::kPressureLimited),
               ConfigError);
}

TEST(Characterize, BuiltLutIsUsableEndToEnd) {
  CharacterizationHarness h = make_liquid_harness();
  const FlowLut lut = FlowLut::characterize(
      [&](double u, std::size_t s) { return h.steady_tmax(u, s); },
      h.setting_count(), 78.0, 9);
  // Hot observations require at least as much flow as cool ones.
  for (std::size_t s = 0; s < 5; ++s) {
    EXPECT_LE(lut.required_setting(s, 50.0), lut.required_setting(s, 95.0));
    EXPECT_LE(lut.required_setting(s, 95.0), lut.required_setting(s, 250.0));
  }
  // A scorching reading always needs a real flow bump over the minimum.
  EXPECT_GE(lut.required_setting(0, 250.0), 2u);
}

// -- The leakage loop ---------------------------------------------------------

/// The leakage loop run to 1e-10 K: the same iteration (the power at the
/// current field, then one steady solve) until a solve moves no node by
/// more than 1e-10 K.  Returns the converged T_max.
double converged_tmax(ThermalModel3D& m, const std::function<void()>& apply_power) {
  std::vector<double> prev;
  for (int i = 0; i < 2000; ++i) {
    prev.assign(m.temperatures().begin(), m.temperatures().end());
    apply_power();
    m.solve_steady_state();
    double change = 0.0;
    for (std::size_t k = 0; k < prev.size(); ++k) {
      change = std::max(change, std::abs(m.temperatures()[k] - prev[k]));
    }
    if (change < 1e-10) return m.max_temperature();
  }
  ADD_FAILURE() << "the reference loop did not reach 1e-10 K";
  return m.max_temperature();
}

/// A SimulationSession's warm-start power: every core busy at the
/// benchmark's average utilization, leakage at the model's current field.
void apply_session_power(ThermalModel3D& m, const PowerModel& power,
                         const BenchmarkSpec& bench, std::size_t cores) {
  double mean_busy = 0.0;
  for (std::size_t c = 0; c < cores; ++c) mean_busy += bench.avg_utilization;
  mean_busy /= static_cast<double>(cores);
  for (std::size_t l = 0; l < m.layer_count(); ++l) {
    const Floorplan& fp = m.stack().layer(l).floorplan;
    std::vector<double> watts(fp.block_count());
    for (std::size_t b = 0; b < fp.block_count(); ++b) {
      const double t = m.block_mean_temperature(l, b);
      switch (fp.block(b).type) {
        case BlockType::kCore:
          watts[b] = power.core_power(CoreState::kActive, bench.avg_utilization,
                                      bench.activity_factor(), t);
          break;
        case BlockType::kL2Cache:
          watts[b] = power.l2_power(t);
          break;
        case BlockType::kCrossbar:
          watts[b] = power.crossbar_power(mean_busy, bench.memory_intensity(), t);
          break;
        case BlockType::kMisc:
          watts[b] = power.misc_power(fp.block(b).rect.area(), t);
          break;
      }
    }
    m.set_block_power(l, watts);
  }
}

TEST(LeakageLoop, AnswersSitWithinToleranceOfTheConvergedLoop) {
  // The paper grid the LUT and the TALB weights are characterized on.
  const ThermalModelParams p;
  for (const std::size_t layers : {2u, 4u}) {
    for (const CoolingType cooling : {CoolingType::kLiquid, CoolingType::kAir}) {
      SCOPED_TRACE(std::to_string(layers) + "-layer " +
                   (cooling == CoolingType::kAir ? "air" : "liquid"));
      const Stack3D stack =
          layers == 2 ? make_2layer_system(cooling) : make_4layer_system(cooling);
      const auto make = [&] {
        return cooling == CoolingType::kAir
                   ? CharacterizationHarness(stack, p, PowerModelParams{})
                   : CharacterizationHarness(stack, p, PowerModelParams{},
                                             PumpModel::laing_ddc(),
                                             FlowDeliveryMode::kPressureLimited);
      };
      CharacterizationHarness h = make();
      CharacterizationHarness reference = make();
      // Rows as sample_tmax_grid sweeps them: each from the ambient field,
      // each point continuing from the previous one.
      for (std::size_t s = 0; s < h.setting_count(); ++s) {
        h.reset();
        for (const double u : {0.0, 0.25, 0.5, 0.75, 1.0}) {
          const double t = h.steady_tmax(u, s);
          EXPECT_EQ(h.leakage_status().end, LeakageEnd::kConverged);
          (void)reference.steady_tmax(u, s);
          const double exact = converged_tmax(
              reference.model(), [&] { reference.apply_uniform_power(u); });
          EXPECT_NEAR(t, exact, kLeakageToleranceK) << "setting " << s << " u " << u;
        }
      }
    }
  }

  // A 4-layer air session's warm start: the loop from the ambient field.
  for (const BenchmarkSpec& bench : table2_benchmarks()) {
    SCOPED_TRACE(bench.name);
    SimulationConfig cfg;
    cfg.layer_pairs = 2;
    cfg.cooling = CoolingMode::kAir;
    cfg.policy = Policy::kLoadBalancing;
    cfg.benchmark = bench;
    SimulationSession session(cfg);
    session.init();
    const double t = session.current_tmax();
    const PowerModel power(cfg.power);
    const double exact = converged_tmax(session.thermal(), [&] {
      apply_session_power(session.thermal(), power, bench, session.core_count());
    });
    EXPECT_NEAR(t, exact, kLeakageToleranceK);
  }
}

TEST(LeakageLoop, VisitOrderMovesNoAnswerPastTheTolerance) {
  ThermalModelParams p;
  p.grid_rows = 8;
  p.grid_cols = 9;
  const std::vector<std::pair<double, std::size_t>> points = {
      {0.2, 1}, {0.8, 3}, {0.4, 2}, {0.6, 2}, {1.0, 0}, {0.0, 4}, {0.6, 4}};
  const auto visit = [&](const std::vector<std::size_t>& order) {
    CharacterizationHarness h(make_2layer_system(), p, PowerModelParams{},
                              PumpModel::laing_ddc(), FlowDeliveryMode::kPressureLimited);
    std::vector<double> answers(points.size());
    for (const std::size_t i : order) {
      answers[i] = h.steady_tmax(points[i].first, points[i].second);
    }
    return answers;
  };
  std::vector<std::size_t> order(points.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const std::vector<double> forward = visit(order);
  std::reverse(order.begin(), order.end());
  const std::vector<double> backward = visit(order);
  const std::vector<double> shuffled = visit({3, 0, 6, 2, 5, 1, 4});
  for (std::size_t i = 0; i < points.size(); ++i) {
    SCOPED_TRACE("u " + std::to_string(points[i].first) + " setting " +
                 std::to_string(points[i].second));
    EXPECT_NEAR(backward[i], forward[i], kLeakageToleranceK);
    EXPECT_NEAR(shuffled[i], forward[i], kLeakageToleranceK);
  }
}

TEST(LeakageLoop, RunawayAbortsAndResetsTheHarness) {
  // Twelve times the default core leakage: the lowest flow cannot hold full
  // load (thermal runaway), setting 2 can.
  ThermalModelParams p;
  p.grid_rows = 8;
  p.grid_cols = 9;
  PowerModelParams leaky;
  leaky.core_leak_ref_w = 6.0;
  const auto make = [&] {
    return CharacterizationHarness(make_2layer_system(), p, leaky, PumpModel::laing_ddc(),
                                   FlowDeliveryMode::kPressureLimited);
  };
  obs::ScopedEnabled on(true);
  obs::Histogram& iterations =
      obs::Registry::global().histogram("liquid3d_thermal_leakage_iterations");
  obs::Counter& unconverged =
      obs::Registry::global().counter("liquid3d_thermal_leakage_unconverged_total");
  const std::uint64_t iterations_base = iterations.count();
  const std::uint64_t unconverged_base = unconverged.value();

  CharacterizationHarness h = make();
  EXPECT_GT(h.steady_tmax(1.0, 0), 400.0);
  EXPECT_EQ(h.leakage_status().end, LeakageEnd::kAborted);
  EXPECT_EQ(unconverged.value() - unconverged_base, 1u);
  // The runaway field is gone: the next point is a fresh harness's answer.
  const double next = h.steady_tmax(1.0, 2);
  EXPECT_EQ(h.leakage_status().end, LeakageEnd::kConverged);
  EXPECT_LT(next, 400.0);
  EXPECT_EQ(next, make().steady_tmax(1.0, 2));
  EXPECT_EQ(iterations.count() - iterations_base, 3u);
  EXPECT_EQ(unconverged.value() - unconverged_base, 1u);
}

}  // namespace
}  // namespace liquid3d
