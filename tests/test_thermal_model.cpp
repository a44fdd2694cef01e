// The 3D thermal model (thermal/model3d.hpp): conservation, monotonicity,
// transient-vs-steady consistency, TSV and grid-refinement behaviour.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "coolant/flow.hpp"
#include "geom/sites.hpp"
#include "geom/stack.hpp"
#include "geom/stack_spec.hpp"
#include "thermal/model3d.hpp"
#include "thermal_test_access.hpp"

namespace liquid3d {
namespace {

ThermalModelParams fast_params() {
  ThermalModelParams p;
  p.grid_rows = 12;
  p.grid_cols = 13;
  return p;
}

/// Uniform power on all cores of every layer; zero elsewhere.
void set_core_power(ThermalModel3D& m, double watts_per_core) {
  const Stack3D& stack = m.stack();
  for (std::size_t l = 0; l < stack.layer_count(); ++l) {
    const Floorplan& fp = stack.layer(l).floorplan;
    std::vector<double> w(fp.block_count(), 0.0);
    for (std::size_t b = 0; b < fp.block_count(); ++b) {
      if (fp.block(b).type == BlockType::kCore) w[b] = watts_per_core;
    }
    m.set_block_power(l, w);
  }
}

VolumetricFlow setting_flow(std::size_t s) {
  const MicrochannelModel channels(CavitySpec{}, CoolantProperties::water());
  const FlowDelivery d(PumpModel::laing_ddc(), FlowDeliveryMode::kPressureLimited,
                       channels, 11.5e-3, 3);
  return d.per_cavity(s);
}

TEST(ThermalModel, ZeroPowerSettlesAtInletTemperature) {
  ThermalModel3D m(make_2layer_system(), fast_params());
  m.set_cavity_flow(setting_flow(2));
  m.solve_steady_state();
  EXPECT_NEAR(m.max_temperature(), m.params().inlet_temperature, 0.05);
  EXPECT_NEAR(m.min_temperature(), m.params().inlet_temperature, 0.05);
}

TEST(ThermalModel, SteadyStateConservesEnergyLiquid) {
  // All injected power must leave through the coolant.
  ThermalModel3D m(make_2layer_system(), fast_params());
  m.set_cavity_flow(setting_flow(3));
  set_core_power(m, 2.0);
  m.solve_steady_state();
  double absorbed = 0.0;
  for (std::size_t k = 0; k < m.stack().cavity_count(); ++k) {
    absorbed += m.cavity_absorbed_power(k);
  }
  EXPECT_NEAR(absorbed, m.total_power(), 0.02 * m.total_power());
}

TEST(ThermalModel, MoreFlowMeansCooler) {
  ThermalModel3D m(make_2layer_system(), fast_params());
  set_core_power(m, 3.0);
  double prev = 1e9;
  for (std::size_t s = 0; s < 5; ++s) {
    m.set_cavity_flow(setting_flow(s));
    m.solve_steady_state();
    const double tmax = m.max_temperature();
    EXPECT_LT(tmax, prev) << "setting " << s;
    prev = tmax;
  }
}

TEST(ThermalModel, MorePowerMeansHotter) {
  ThermalModel3D m(make_2layer_system(), fast_params());
  m.set_cavity_flow(setting_flow(2));
  double prev = 0.0;
  for (double p : {0.5, 1.0, 2.0, 3.0}) {
    set_core_power(m, p);
    m.solve_steady_state();
    EXPECT_GT(m.max_temperature(), prev);
    prev = m.max_temperature();
  }
}

TEST(ThermalModel, TransientConvergesToSteadyState) {
  ThermalModel3D steady(make_2layer_system(), fast_params());
  steady.set_cavity_flow(setting_flow(2));
  set_core_power(steady, 2.5);
  steady.solve_steady_state();

  ThermalModel3D trans(make_2layer_system(), fast_params());
  trans.set_cavity_flow(setting_flow(2));
  set_core_power(trans, 2.5);
  trans.initialize(trans.params().inlet_temperature);
  for (int i = 0; i < 2000; ++i) trans.step(0.05);  // 100 s simulated

  EXPECT_NEAR(trans.max_temperature(), steady.max_temperature(), 0.2);
  EXPECT_NEAR(trans.min_temperature(), steady.min_temperature(), 0.2);
}

TEST(ThermalModel, CoolantHeatsDownstream) {
  ThermalModelParams p = fast_params();
  p.alternate_flow_direction = false;  // all cavities flow +x for this check
  ThermalModel3D m(make_2layer_system(), p);
  m.set_cavity_flow(setting_flow(1));
  set_core_power(m, 3.0);
  m.solve_steady_state();
  for (std::size_t k = 0; k < m.stack().cavity_count(); ++k) {
    EXPECT_GT(m.fluid_outlet_temperature(k), m.params().inlet_temperature + 1.0)
        << "cavity " << k;
  }
  // Junction cells get hotter toward the outlet (ΔT_heat accumulation).
  const Grid& g = m.grid();
  const std::size_t row = g.rows() / 2;
  const double t_in_side = m.cell_temperature(0, g.index(row, 1));
  const double t_out_side = m.cell_temperature(0, g.index(row, g.cols() - 2));
  EXPECT_GT(t_out_side, t_in_side + 1.0);
}

TEST(ThermalModel, CounterflowWastesCapacityInAdvectionLimitedRegime) {
  // At the pressure-limited flows the coolant saturates to the wall
  // temperature within a couple of cells (advection-limited cooling).
  // Reversing the middle cavity then makes it exhaust at the cold end: it
  // absorbs far less than its share and the stack runs hotter.  This is why
  // alternate_flow_direction defaults to off (see ThermalModelParams).
  auto run = [](bool alternate) {
    ThermalModelParams p = fast_params();
    p.alternate_flow_direction = alternate;
    ThermalModel3D m(make_2layer_system(), p);
    m.set_cavity_flow(setting_flow(1));
    set_core_power(m, 3.0);
    m.solve_steady_state();
    return m;
  };
  ThermalModel3D uni = run(false);
  ThermalModel3D alt = run(true);

  // Unidirectional: the three cavities share the load roughly equally.
  const double uni_mid_share =
      uni.cavity_absorbed_power(1) /
      (uni.cavity_absorbed_power(0) + uni.cavity_absorbed_power(2));
  EXPECT_GT(uni_mid_share, 0.35);
  // Counterflow: the reversed middle cavity carries a small fraction.
  const double alt_mid_share =
      alt.cavity_absorbed_power(1) /
      (alt.cavity_absorbed_power(0) + alt.cavity_absorbed_power(2));
  EXPECT_LT(alt_mid_share, 0.25);
  // And the stack runs hotter overall.
  EXPECT_GT(alt.max_temperature(), uni.max_temperature() + 3.0);
}

TEST(ThermalModel, TsvsCoolTheCrossbarRegion) {
  // Copper TSVs lower the vertical resistance under the crossbar, so the
  // crossbar block runs cooler with TSVs than without, all else equal.
  Stack3D with_tsv = make_2layer_system();
  Stack3D no_tsv = make_2layer_system();
  no_tsv.set_tsvs(TsvSpec{0, 50e-6, 400.0});

  auto xbar_temp = [](Stack3D stack) {
    ThermalModel3D m(std::move(stack), fast_params());
    m.set_cavity_flow(setting_flow(1));
    const Floorplan& fp = m.stack().layer(0).floorplan;
    std::vector<double> w(fp.block_count(), 0.0);
    for (std::size_t b = 0; b < fp.block_count(); ++b) {
      if (fp.block(b).type == BlockType::kCrossbar) w[b] = 3.0;
    }
    m.set_block_power(0, w);
    m.solve_steady_state();
    return m.block_temperature(0, *fp.find("xbar"));
  };
  EXPECT_LT(xbar_temp(std::move(with_tsv)), xbar_temp(std::move(no_tsv)));
}

TEST(ThermalModel, AirPackageTracksPower) {
  ThermalModel3D m(make_2layer_system(CoolingType::kAir), fast_params());
  set_core_power(m, 1.0);
  m.solve_steady_state();
  const double sink_low = m.sink_temperature();
  const double tmax_low = m.max_temperature();
  set_core_power(m, 3.0);
  m.solve_steady_state();
  EXPECT_GT(m.sink_temperature(), sink_low);
  EXPECT_GT(m.max_temperature(), tmax_low);
  EXPECT_GT(m.sink_temperature(), m.params().ambient_temperature);
  // Junction is hotter than the sink (heat flows outward).
  EXPECT_GT(m.max_temperature(), m.sink_temperature());
}

TEST(ThermalModel, AirTransientMatchesSteady) {
  ThermalModel3D steady(make_2layer_system(CoolingType::kAir), fast_params());
  set_core_power(steady, 2.0);
  steady.solve_steady_state();

  ThermalModel3D trans(make_2layer_system(CoolingType::kAir), fast_params());
  set_core_power(trans, 2.0);
  trans.initialize(trans.params().ambient_temperature);
  for (int i = 0; i < 4000; ++i) trans.step(0.1);  // 400 s: package tau is slow
  EXPECT_NEAR(trans.max_temperature(), steady.max_temperature(), 0.5);
  EXPECT_NEAR(trans.sink_temperature(), steady.sink_temperature(), 0.5);
}

TEST(ThermalModel, LiquidBeatsAirAtSamePower) {
  // The paper's premise: interlayer liquid cooling removes heat far better
  // than the conventional package.
  ThermalModel3D liquid(make_2layer_system(), fast_params());
  liquid.set_cavity_flow(setting_flow(4));
  set_core_power(liquid, 3.0);
  liquid.solve_steady_state();

  ThermalModel3D air(make_2layer_system(CoolingType::kAir), fast_params());
  set_core_power(air, 3.0);
  air.solve_steady_state();

  EXPECT_LT(liquid.max_temperature(), air.max_temperature());
}

TEST(ThermalModel, TopologyFingerprintTracksEveryAssemblyInput) {
  // Equal fingerprints promise bit-identical operators (factor sharing and
  // batch grouping rest on it), so equal inputs must agree and each input
  // the assembly reads must move the fingerprint.
  const auto fingerprint = [](const StackSpec& spec, const ThermalModelParams& p) {
    return ThermalModel3D(make_stack(spec), p).topology_fingerprint();
  };
  const StackSpec spec = niagara_stack_spec(1, CoolingType::kLiquid);
  const std::uint64_t base = fingerprint(spec, fast_params());
  EXPECT_EQ(fingerprint(niagara_stack_spec(1, CoolingType::kLiquid), fast_params()), base);

  ThermalModelParams cols = fast_params();
  cols.grid_cols += 1;
  EXPECT_NE(fingerprint(spec, cols), base) << "grid_cols";
  StackSpec thicker = spec;
  thicker.layers[1].die_thickness *= 1.01;
  EXPECT_NE(fingerprint(thicker, fast_params()), base) << "die_thickness";
  StackSpec tsvs = spec;
  tsvs.tsvs.count += 1;
  EXPECT_NE(fingerprint(tsvs, fast_params()), base) << "tsvs.count";
  ThermalModelParams coolant = fast_params();
  coolant.coolant.heat_capacity *= 1.01;
  EXPECT_NE(fingerprint(spec, coolant), base) << "coolant.heat_capacity";
  ThermalModelParams direction = fast_params();
  direction.alternate_flow_direction = !direction.alternate_flow_direction;
  EXPECT_NE(fingerprint(spec, direction), base) << "alternate_flow_direction";
  EXPECT_NE(fingerprint(niagara_stack_spec(1, CoolingType::kAir), fast_params()), base)
      << "air";
}

class GridRefinementSweep
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(GridRefinementSweep, TmaxIsGridStable) {
  // Refining the grid must not change the steady maximum temperature by
  // more than a few percent of its rise over the inlet.
  ThermalModelParams coarse = fast_params();
  ThermalModelParams fine = fast_params();
  fine.grid_rows = GetParam().first;
  fine.grid_cols = GetParam().second;

  auto tmax = [](ThermalModelParams p) {
    ThermalModel3D m(make_2layer_system(), p);
    m.set_cavity_flow(setting_flow(2));
    set_core_power(m, 3.0);
    m.solve_steady_state();
    return m.max_temperature();
  };
  const double t_coarse = tmax(coarse);
  const double t_fine = tmax(fine);
  const double rise = t_coarse - 45.0;
  EXPECT_NEAR(t_fine, t_coarse, 0.15 * rise);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, GridRefinementSweep,
    ::testing::Values(std::pair<std::size_t, std::size_t>{23, 26},
                      std::pair<std::size_t, std::size_t>{34, 39},
                      std::pair<std::size_t, std::size_t>{46, 52}));

TEST(ThermalModel, StagnantCoolantHasNoSteadyStateAndHeatsWithoutBound) {
  ThermalModel3D m(make_2layer_system(), fast_params());
  set_core_power(m, 1.0);
  m.set_cavity_flow(setting_flow(0));
  m.solve_steady_state();
  const double flowing = m.max_temperature();

  // Pump off: a steady solve must be rejected (no heat path to anywhere)...
  m.set_cavity_flow(VolumetricFlow{});
  EXPECT_THROW(m.solve_steady_state(), ConfigError);

  // ...and the transient just keeps climbing.  The step runs through the
  // fluid elimination's stagnant branch: the coolant is the local wall
  // average, carries nothing to the outlet and absorbs no power.
  m.initialize(m.params().inlet_temperature);
  const obs::ScopedEnabled obs_on(true);
  const std::uint64_t factorizations = factorization_count();
  for (int i = 0; i < 400; ++i) m.step(0.1);
  EXPECT_EQ(factorization_count(), factorizations + 1);
  const double t_40s = m.max_temperature();
  for (int i = 0; i < 400; ++i) m.step(0.1);
  EXPECT_GT(m.max_temperature(), t_40s + 1.0);
  EXPECT_GT(m.max_temperature(), flowing);
  for (std::size_t k = 0; k < m.stack().cavity_count(); ++k) {
    EXPECT_EQ(m.cavity_absorbed_power(k), 0.0);
    EXPECT_EQ(m.fluid_outlet_temperature(k), m.params().inlet_temperature);
  }
}

/// Smallest |a_ii| / sum_{j != i} |a_ij| over the rows of a banded matrix
/// (> 1: strictly diagonally dominant).
double min_dominance_ratio(const BandedLuMatrix& a) {
  const std::size_t n = a.size();
  double worst = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j0 = i >= a.lower_bandwidth() ? i - a.lower_bandwidth() : 0;
    const std::size_t j1 = std::min(n - 1, i + a.upper_bandwidth());
    double off = 0.0;
    for (std::size_t j = j0; j <= j1; ++j) {
      if (j != i) off += std::abs(a.at(i, j));
    }
    worst = std::min(worst, std::abs(a.at(i, i)) / off);
  }
  return worst;
}

TEST(ThermalModel, EliminatedTransientRowsAreDiagonallyDominant) {
  // The unpivoted banded LU is stable on diagonally dominant rows.  At the
  // sampling sub-step the stored-heat term C/dt makes every row of
  // C/dt + G_elim strictly dominant at all five pump settings — including
  // the lowest, where the steady rows alone are not (sigma = g_sum / w_row
  // = 2.08 > 2).  Below the lowest setting (valve throttling) dominance is
  // lost; the EliminatedStep tests pin the LU's answers there against a
  // dense partially pivoted LU of the same operator instead.
  ThermalModel3D m(make_2layer_system(), ThermalModelParams{});
  const std::size_t bw = m.grid().cols() * m.layer_count();
  BandedLuMatrix a(m.node_count(), bw, bw);
  std::vector<double> inlet_coef;
  for (std::size_t s = 0; s < 5; ++s) {
    SCOPED_TRACE(s);
    m.set_cavity_flow(setting_flow(s));
    ThermalModel3DTestAccess::build_eliminated_system(m, 1.0 / 0.05, a,
                                                      inlet_coef);
    EXPECT_GT(min_dominance_ratio(a), 1.02);
    ThermalModel3DTestAccess::build_eliminated_system(m, 0.0, a, inlet_coef);
    if (s == 0) {
      EXPECT_LT(min_dominance_ratio(a), 1.0);
    }
  }
}

TEST(ThermalModel, BlockReadbackConsistent) {
  ThermalModel3D m(make_2layer_system(), fast_params());
  m.set_cavity_flow(setting_flow(2));
  set_core_power(m, 3.0);
  m.solve_steady_state();
  const Floorplan& fp = m.stack().layer(0).floorplan;
  for (std::size_t b = 0; b < fp.block_count(); ++b) {
    EXPECT_GE(m.block_temperature(0, b), m.block_mean_temperature(0, b) - 1e-9);
    EXPECT_LE(m.block_temperature(0, b), m.max_temperature() + 1e-9);
  }
  // Cores (powered) run hotter than the die's unpowered blocks.
  const std::vector<BlockSite> cores = enumerate_sites(m.stack(), BlockType::kCore);
  double core_min = 1e9;
  for (const BlockSite& c : cores) {
    core_min = std::min(core_min, m.block_temperature(c.layer, c.block));
  }
  EXPECT_GT(core_min, m.min_temperature());
}

TEST(ThermalModel, BlockReadbacksMatchLayerCopy) {
  // The block readbacks read the interleaved field in place; they must give
  // the bits of the BlockCellMap reductions over a copy of the layer.
  for (const CoolingType cooling : {CoolingType::kLiquid, CoolingType::kAir}) {
    for (const bool four : {false, true}) {
      SCOPED_TRACE(std::string(cooling == CoolingType::kLiquid ? "liquid " : "air ") +
                   (four ? "4-layer" : "2-layer"));
      ThermalModel3D m(four ? make_4layer_system(cooling) : make_2layer_system(cooling),
                       fast_params());
      if (cooling == CoolingType::kLiquid) m.set_cavity_flow(setting_flow(2));
      for (std::size_t l = 0; l < m.layer_count(); ++l) {
        std::vector<double> w(m.block_map(l).block_count());
        for (std::size_t b = 0; b < w.size(); ++b) {
          w[b] = 0.2 + 0.15 * static_cast<double>((b * 7 + l * 3) % 11);
        }
        m.set_block_power(l, w);
      }
      m.initialize(45.0);
      for (int i = 0; i < 3; ++i) m.step(0.1);
      std::vector<double> layer(m.grid().cell_count());
      for (std::size_t l = 0; l < m.layer_count(); ++l) {
        for (std::size_t c = 0; c < layer.size(); ++c) layer[c] = m.cell_temperature(l, c);
        const BlockCellMap& map = m.block_map(l);
        for (std::size_t b = 0; b < map.block_count(); ++b) {
          EXPECT_EQ(m.block_temperature(l, b), map.block_max(layer, b));
          EXPECT_EQ(m.block_mean_temperature(l, b), map.block_mean(layer, b));
        }
      }
    }
  }
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(bits(a[i]), bits(b[i])) << i;
}

void expect_bitwise_equal(const ThermalState& a, const ThermalState& b) {
  expect_bitwise_equal(a.temps, b.temps);
  ASSERT_EQ(a.fluid_temp.size(), b.fluid_temp.size());
  for (std::size_t k = 0; k < a.fluid_temp.size(); ++k) {
    expect_bitwise_equal(a.fluid_temp[k], b.fluid_temp[k]);
  }
  expect_bitwise_equal(a.cavity_absorbed, b.cavity_absorbed);
  expect_bitwise_equal(a.cavity_outlet, b.cavity_outlet);
}

TEST(FluidReadbacks, OnDemandMarchMatchesEagerMarch) {
  // A direct liquid step leaves the coolant march pending until a readback.
  // `eager` reads after every step, so it marches every step; `lazy` reads
  // only at checkpoints, each placed right after an input change with no
  // step between, so a march the change failed to settle first would run
  // on the new inputs and show.
  for (const bool four : {false, true}) {
    SCOPED_TRACE(four ? "4-layer" : "2-layer");
    ThermalModelParams p = fast_params();
    p.alternate_flow_direction = true;
    const Stack3D stack = four ? make_4layer_system() : make_2layer_system();
    ThermalModel3D eager(stack, p);
    ThermalModel3D lazy(stack, p);
    const std::size_t cavities = stack.cavity_count();
    std::vector<VolumetricFlow> uneven(cavities);
    for (std::size_t k = 0; k < cavities; ++k) uneven[k] = setting_flow(1 + k % 3);
    for (ThermalModel3D* m : {&eager, &lazy}) {
      m->set_cavity_flow(setting_flow(2));
      set_core_power(*m, 2.5);
      m->initialize(45.0);
    }
    const auto step_both = [&](int n) {
      for (int i = 0; i < n; ++i) {
        eager.step(0.1);
        lazy.step(0.1);
        for (std::size_t k = 0; k < cavities; ++k) {
          (void)eager.fluid_outlet_temperature(k);
          (void)eager.cavity_absorbed_power(k);
        }
      }
    };
    const auto checkpoint = [&](const char* where) {
      SCOPED_TRACE(where);
      for (std::size_t k = 0; k < cavities; ++k) {
        EXPECT_EQ(bits(lazy.fluid_outlet_temperature(k)),
                  bits(eager.fluid_outlet_temperature(k)));
        EXPECT_EQ(bits(lazy.cavity_absorbed_power(k)), bits(eager.cavity_absorbed_power(k)));
      }
      EXPECT_EQ(bits(lazy.max_temperature()), bits(eager.max_temperature()));
    };
    step_both(3);
    for (ThermalModel3D* m : {&eager, &lazy}) m->set_cavity_flow(setting_flow(3));
    checkpoint("after a scalar flow change");
    step_both(3);
    for (ThermalModel3D* m : {&eager, &lazy}) m->set_cavity_flow(uneven);
    checkpoint("after a vector flow change");
    step_both(3);
    for (ThermalModel3D* m : {&eager, &lazy}) m->set_inlet_temperature(42.0);
    checkpoint("after an inlet change");
    step_both(2);
    ThermalState eager_saved;
    ThermalState lazy_saved;
    eager.save_state(eager_saved);
    lazy.save_state(lazy_saved);
    expect_bitwise_equal(lazy_saved, eager_saved);
    step_both(2);
    for (ThermalModel3D* m : {&eager, &lazy}) m->set_cavity_flow(setting_flow(1));
    step_both(3);
    checkpoint("at the end");
    ThermalState eager_end;
    ThermalState lazy_end;
    eager.save_state(eager_end);
    lazy.save_state(lazy_end);
    expect_bitwise_equal(lazy_end, eager_end);
  }
}

// --- Failure taxonomy: numerical outcomes raise SolverError, not
// ConfigError (nothing wrong with the inputs) or LogicError (nothing wrong
// with the code). ---------------------------------------------------------

TEST(ThermalModelFailures, GridPastTheFactorCapIsRejected) {
  // The paper's 100 µm grid (100 x 115 cells) on 4 layers needs a 339 MB
  // band: n = 46,000 nodes, 2b + 1 = 921.  It fits; a 200 x 500 grid on 2
  // layers (3.2 GB) and a row count that overflows the band's size in
  // 64-bit arithmetic do not, and are rejected before any allocation of
  // the grid's size.
  EXPECT_GE(kMaxFactorBytes, std::size_t{46000} * 921 * sizeof(double));
  ThermalModelParams p;
  p.grid_rows = 100;
  p.grid_cols = 115;
  EXPECT_NO_THROW(ThermalModel3D(make_niagara_stack(2, CoolingType::kLiquid), p));
  p.grid_rows = 200;
  p.grid_cols = 500;
  EXPECT_THROW(ThermalModel3D(make_2layer_system(), p), ConfigError);
  p.grid_rows = std::size_t{1} << 40;
  p.grid_cols = 26;
  EXPECT_THROW(ThermalModel3D(make_2layer_system(), p), ConfigError);
  p.grid_rows = 23;
  p.grid_cols = std::size_t{1} << 62;
  EXPECT_THROW(ThermalModel3D(make_2layer_system(CoolingType::kAir), p), ConfigError);
}

TEST(ThermalModelFailures, NonFinitePowerThrowsSolverError) {
  ThermalModel3D m(make_2layer_system(), fast_params());
  const Floorplan& fp = m.stack().layer(0).floorplan;

  std::vector<double> w(fp.block_count(), 1.0);
  w[0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(m.set_block_power(0, w), SolverError);
  w[0] = std::numeric_limits<double>::infinity();
  EXPECT_THROW(m.set_block_power(0, w), SolverError);

  // Merely invalid (finite, negative) power is still the caller's mistake.
  w[0] = -1.0;
  EXPECT_THROW(m.set_block_power(0, w), ConfigError);
}

TEST(ThermalModelFailures, NonFiniteFieldThrowsAtEveryPosition) {
  // A NaN or ±inf anywhere in the field reaches the step's right-hand side,
  // and the finite check there must name it, wherever it sits.
  struct Path {
    const char* name;
    CoolingType cooling;
  };
  const double bad_values[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
  for (const Path& path :
       {Path{"liquid", CoolingType::kLiquid}, Path{"air", CoolingType::kAir}}) {
    ThermalModel3D m(make_2layer_system(path.cooling), fast_params());
    if (path.cooling == CoolingType::kLiquid) m.set_cavity_flow(setting_flow(2));
    set_core_power(m, 2.0);
    m.initialize(45.0);
    m.step(0.1);
    const std::size_t n = m.node_count();
    for (const std::size_t at : {std::size_t{0}, n / 2, n - 1}) {
      const double healthy = m.temperatures()[at];
      for (const double bad : bad_values) {
        SCOPED_TRACE(std::string(path.name) + " node " + std::to_string(at) + " value " +
                     std::to_string(bad));
        ThermalModel3DTestAccess::set_node_temperature(m, at, bad);
        try {
          m.step(0.1);
          ADD_FAILURE() << "expected SolverError";
        } catch (const SolverError& e) {
          EXPECT_NE(std::string(e.what()).find("RHS contains non-finite"), std::string::npos)
              << e.what();
        }
      }
      ThermalModel3DTestAccess::set_node_temperature(m, at, healthy);
    }
  }
}

}  // namespace
}  // namespace liquid3d
