// Per-cavity flow vectors end to end: ThermalModel3D's vector
// set_cavity_flow (scalar-broadcast equivalence, steady-system cache
// correctness on single-cavity changes, flow steering physics), the
// CavityFlowController, and the per-cavity characterization grid.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "control/cavity_flow_controller.hpp"
#include "control/characterize.hpp"
#include "coolant/valve_network.hpp"
#include "geom/stack.hpp"
#include "thermal/model3d.hpp"

namespace liquid3d {
namespace {

ThermalModelParams small_params() {
  ThermalModelParams p;
  p.grid_rows = 10;
  p.grid_cols = 11;
  return p;
}

/// 3 W per core on the core die (layer 0), everything else unpowered.
void apply_core_power(ThermalModel3D& m) {
  const Floorplan& fp = m.stack().layer(0).floorplan;
  std::vector<double> watts(fp.block_count(), 0.0);
  for (std::size_t b = 0; b < fp.block_count(); ++b) {
    if (fp.block(b).type == BlockType::kCore) watts[b] = 3.0;
  }
  m.set_block_power(0, watts);
}

VolumetricFlow ml(double v) { return VolumetricFlow::from_ml_per_min(v); }

TEST(CavityFlowVector, ScalarBroadcastIsBitIdenticalToVector) {
  ThermalModel3D scalar_m(make_2layer_system(), small_params());
  ThermalModel3D vector_m(make_2layer_system(), small_params());
  apply_core_power(scalar_m);
  apply_core_power(vector_m);

  scalar_m.set_cavity_flow(ml(9.0));
  vector_m.set_cavity_flow(std::vector<VolumetricFlow>(3, ml(9.0)));
  ASSERT_EQ(vector_m.cavity_flows().size(), 3u);
  EXPECT_DOUBLE_EQ(vector_m.cavity_flow(1).ml_per_min(), 9.0);

  scalar_m.solve_steady_state();
  vector_m.solve_steady_state();
  for (std::size_t l = 0; l < scalar_m.layer_count(); ++l) {
    for (std::size_t c = 0; c < scalar_m.grid().cell_count(); ++c) {
      ASSERT_DOUBLE_EQ(scalar_m.cell_temperature(l, c),
                       vector_m.cell_temperature(l, c));
    }
  }

  // Transient path: identical stepping too.
  scalar_m.initialize(45.0);
  vector_m.initialize(45.0);
  for (int i = 0; i < 5; ++i) {
    scalar_m.step(0.05);
    vector_m.step(0.05);
  }
  EXPECT_DOUBLE_EQ(scalar_m.max_temperature(), vector_m.max_temperature());
  EXPECT_DOUBLE_EQ(scalar_m.fluid_outlet_temperature(1),
                   vector_m.fluid_outlet_temperature(1));
}

TEST(CavityFlowVector, SingleCavityChangeInvalidatesSteadyCache) {
  // The direct steady system is cached per flow *vector*: changing one
  // cavity's flow must rebuild it (a stale factorization would silently
  // keep the old cavity's elimination coefficients).
  ThermalModel3D m(make_2layer_system(), small_params());
  apply_core_power(m);
  m.set_cavity_flow({ml(9.0), ml(9.0), ml(9.0)});
  m.solve_steady_state();
  const double t_uniform = m.max_temperature();

  m.set_cavity_flow({ml(9.0), ml(9.0), ml(18.0)});
  m.solve_steady_state();
  const double t_changed = m.max_temperature();
  EXPECT_GT(std::abs(t_changed - t_uniform), 1e-4);

  // The post-change solution matches a fresh model that never saw the old
  // flow (the steady state is unique given power and flow).
  ThermalModel3D fresh(make_2layer_system(), small_params());
  apply_core_power(fresh);
  fresh.set_cavity_flow({ml(9.0), ml(9.0), ml(18.0)});
  fresh.solve_steady_state();
  for (std::size_t l = 0; l < m.layer_count(); ++l) {
    for (std::size_t c = 0; c < m.grid().cell_count(); ++c) {
      ASSERT_NEAR(m.cell_temperature(l, c), fresh.cell_temperature(l, c), 1e-7);
    }
  }

  // And changing back reproduces the original answer (no key aliasing).
  m.set_cavity_flow({ml(9.0), ml(9.0), ml(9.0)});
  m.solve_steady_state();
  EXPECT_NEAR(m.max_temperature(), t_uniform, 1e-7);
}

TEST(CavityFlowVector, SteeringFlowTowardHotCavitiesLowersTmax) {
  // All power sits on the core die (layer 0), which cavities 0 and 1 touch;
  // cavity 2 only cools the unpowered cache die.  Moving cavity 2's share
  // to the hot cavities at the same total must lower T_max — the whole
  // point of valve-network delivery.
  ThermalModel3D uniform(make_2layer_system(), small_params());
  ThermalModel3D skewed(make_2layer_system(), small_params());
  apply_core_power(uniform);
  apply_core_power(skewed);

  uniform.set_cavity_flow({ml(6.0), ml(6.0), ml(6.0)});
  skewed.set_cavity_flow({ml(8.0), ml(8.0), ml(2.0)});  // same 18 ml/min total
  uniform.solve_steady_state();
  skewed.solve_steady_state();
  EXPECT_LT(skewed.max_temperature(), uniform.max_temperature());
}

TEST(CavityFlowVector, CavityMaxTemperatureTracksAdjacentDies) {
  ThermalModel3D m(make_2layer_system(), small_params());
  apply_core_power(m);
  m.set_cavity_flow(ml(9.0));
  m.solve_steady_state();
  // Cavities 0 and 1 touch the powered core die; cavity 2 only the cache
  // die above it, which runs cooler.
  EXPECT_GT(m.cavity_max_temperature(0), m.cavity_max_temperature(2));
  EXPECT_GT(m.cavity_max_temperature(1), m.cavity_max_temperature(2));
  EXPECT_DOUBLE_EQ(m.cavity_max_temperature(1), m.max_temperature());
  std::vector<double> all;
  m.cavity_max_temperatures(all);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_DOUBLE_EQ(all[0], m.cavity_max_temperature(0));

  EXPECT_THROW((void)m.cavity_max_temperature(3), ConfigError);
  EXPECT_THROW(m.set_cavity_flow({ml(1.0), ml(1.0)}), ConfigError);  // arity
}

// ---------------------------------------------------------------------------
// CavityFlowController
// ---------------------------------------------------------------------------

TEST(CavityFlowController, UniformFallbackWithoutObservations) {
  const CavityFlowController c(3);
  const auto openings = c.valve_openings({});
  ASSERT_EQ(openings.size(), 3u);
  for (double o : openings) EXPECT_DOUBLE_EQ(o, 1.0);
}

TEST(CavityFlowController, HottestCavityOpensFullyCoolestThrottles) {
  const CavityFlowController c(3);
  // Spread 15 K > the 8 K full-scale span: full throttle depth.
  const auto openings = c.valve_openings({70.0, 75.0, 60.0});
  EXPECT_DOUBLE_EQ(openings[1], 1.0);
  // The coolest cavity bottoms out within one quantum of the lossy floor.
  EXPECT_LE(openings[2], c.params().min_opening + c.params().opening_quantum);
  EXPECT_GE(openings[2], c.params().min_opening);
  EXPECT_GT(openings[0], openings[2]);
  EXPECT_LT(openings[0], openings[1]);
}

TEST(CavityFlowController, ThrottleDepthScalesWithSpread) {
  const CavityFlowController c(3);
  // Spread 2 K (one quarter of the 8 K full scale): the coolest cavity only
  // closes a quarter of the way to the floor — gentle corrections for small
  // asymmetries, so the controller cannot invert the thermal profile.
  const auto openings = c.valve_openings({70.0, 72.0, 71.0});
  const double depth = 2.0 / c.params().full_scale_span_c;
  const double q = c.params().opening_quantum;
  EXPECT_DOUBLE_EQ(openings[1], 1.0);
  // Raw proportional value, snapped to the quantum grid.
  EXPECT_NEAR(openings[0], 1.0 - (1.0 - c.params().min_opening) * depth, q);
  EXPECT_DOUBLE_EQ(openings[0], std::round(openings[0] / q) * q);  // on-grid
  EXPECT_GT(openings[2], openings[0]);
}

TEST(CavityFlowController, QuantumNotDividingOneStillYieldsInRangeOpenings) {
  // A 0.15 quantum does not divide 1: un-clamped snapping would round the
  // hottest cavity to 1.05 (past fully open).  Every opening must stay in
  // [min_opening, 1].
  CavityFlowControllerParams p;
  p.opening_quantum = 0.15;
  const CavityFlowController c(3, p);
  const auto openings = c.valve_openings({70.0, 75.0, 60.0});
  for (double o : openings) {
    EXPECT_GE(o, p.min_opening);
    EXPECT_LE(o, 1.0);
  }
  EXPECT_DOUBLE_EQ(openings[1], 1.0);  // hottest clamps back to fully open
}

TEST(CavityFlowController, QuantizationAbsorbsSmallDrift) {
  // Chatter suppression: sample-to-sample temperature drift that moves the
  // raw proportional openings by less than half a quantum produces the
  // *identical* command, so the valve actuator sees no change at all.
  const CavityFlowController c(3);
  const auto a = c.valve_openings({70.0, 74.0, 72.0});
  const auto b = c.valve_openings({70.05, 74.1, 72.02});
  EXPECT_EQ(a, b);
}

TEST(CavityFlowController, ActivationBandKeepsValvesUniform) {
  const CavityFlowController c(3);
  // Spread 0.2 K < the 0.75 K activation band: nothing to win by steering.
  const auto openings = c.valve_openings({70.0, 70.2, 70.1});
  for (double o : openings) EXPECT_DOUBLE_EQ(o, 1.0);
}

TEST(CavityFlowController, RejectsBadArityAndParams) {
  const CavityFlowController c(3);
  EXPECT_THROW((void)c.valve_openings({70.0, 71.0}), ConfigError);
  CavityFlowControllerParams bad;
  bad.full_scale_span_c = 0.0;
  EXPECT_THROW(CavityFlowController(3, bad), ConfigError);
}

// ---------------------------------------------------------------------------
// Per-cavity characterization grid
// ---------------------------------------------------------------------------

TEST(CavitySkewGrid, GridCapturesAsymmetricCavitySensitivity) {
  ThermalModelParams p = small_params();
  const Stack3D stack = make_2layer_system();
  auto factory = [&]() {
    return std::make_unique<CharacterizationHarness>(
        stack, p, PowerModelParams{}, PumpModel::laing_ddc(),
        FlowDeliveryMode::kPressureLimited);
  };
  const MicrochannelModel channels(stack.cavity(), p.coolant, p.channel_params);
  const ValveNetwork net(
      FlowDelivery(PumpModel::laing_ddc(), FlowDeliveryMode::kPressureLimited,
                   channels, stack.width(), stack.cavity_count()),
      ValveNetworkParams{});

  const CavitySkewGrid grid =
      sample_cavity_skew_grid(factory, net, /*setting=*/2, /*utilization=*/0.6,
                              /*opening_points=*/3, /*threads=*/2);
  ASSERT_EQ(grid.tmax.size(), 3u);
  ASSERT_EQ(grid.openings.size(), 3u);
  EXPECT_DOUBLE_EQ(grid.openings.front(), net.params().min_opening);
  EXPECT_DOUBLE_EQ(grid.openings.back(), 1.0);
  for (const auto& row : grid.tmax) ASSERT_EQ(row.size(), 3u);
  // Cavities 0 and 1 touch the powered core die: starving them concentrates
  // heat, so T_max rises as their opening shrinks.
  EXPECT_GT(grid.tmax[0].front(), grid.tmax[0].back());
  EXPECT_GT(grid.tmax[1].front(), grid.tmax[1].back());
  // Cavity 2 only cools the cache die: starving it hands its flow to the
  // hot cavities, so T_max *drops* — the asymmetry the valve controller
  // exploits, made visible by the characterization grid.
  EXPECT_LT(grid.tmax[2].front(), grid.tmax[2].back());
  // The fully-open corner of every row is the same operating point, each
  // answer within kLeakageToleranceK of it.
  EXPECT_NEAR(grid.tmax[0].back(), grid.tmax[1].back(), 2 * kLeakageToleranceK);
  EXPECT_NEAR(grid.tmax[1].back(), grid.tmax[2].back(), 2 * kLeakageToleranceK);
}

}  // namespace
}  // namespace liquid3d
