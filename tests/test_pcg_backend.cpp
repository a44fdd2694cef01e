// Iterative thermal backend (thermal/solver/{sparse_matrix,pcg,backend}):
// CSR assembly, IC(0)-preconditioned BiCGSTAB against dense solves,
// warm starts, the bandwidth cost-model cutover, and direct-vs-PCG
// agreement of full ThermalModel3D transient and steady solves across
// grids, stacks, and flow vectors — including the direct backend's
// fluid-eliminated LU step against the PCG backend's matrix-free
// BiCGSTAB solve of the same operator, which never goes through the LU.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/linalg.hpp"
#include "common/rng.hpp"
#include "coolant/flow.hpp"
#include "coolant/pump.hpp"
#include "geom/stack.hpp"
#include "thermal/model3d.hpp"
#include "thermal/solver/backend.hpp"
#include "thermal/solver/pcg.hpp"
#include "thermal/solver/sparse_matrix.hpp"
#include "thermal_test_access.hpp"

namespace liquid3d {
namespace {

/// Random SPD conduction-style network stamped into both a SparseMatrix and
/// a dense mirror (same generator family as the banded solver tests).
SparseMatrix random_network(std::size_t n, std::size_t reach, Rng& rng,
                            Matrix* dense = nullptr) {
  SparseMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double c = 0.5 + rng.uniform();
    m.add_diagonal(i, c);
    if (dense) (*dense)(i, i) += c;
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < std::min(n, i + reach + 1); ++j) {
      if (!rng.bernoulli(0.3)) continue;
      const double g = rng.uniform(0.1, 2.0);
      m.add_coupling(i, j, g);
      if (dense) {
        (*dense)(i, i) += g;
        (*dense)(j, j) += g;
        (*dense)(i, j) -= g;
        (*dense)(j, i) -= g;
      }
    }
  }
  return m;
}

TEST(SparseMatrix, MultiplyMatchesDense) {
  constexpr std::size_t n = 70;
  Rng rng(5);
  Matrix dense(n, n);
  SparseMatrix m = random_network(n, 9, rng, &dense);
  m.finalize();
  ASSERT_TRUE(m.finalized());

  std::vector<double> x(n);
  for (double& v : x) v = rng.uniform(-3, 3);
  std::vector<double> y(n);
  m.multiply(x.data(), y.data());
  for (std::size_t i = 0; i < n; ++i) {
    double ref = 0.0;
    for (std::size_t j = 0; j < n; ++j) ref += dense(i, j) * x[j];
    EXPECT_NEAR(y[i], ref, 1e-12 * (1.0 + std::abs(ref))) << "row " << i;
  }
}

TEST(SparseMatrix, DuplicateStampsMergeAndColumnsSort) {
  SparseMatrix m(3);
  m.add_diagonal(0, 1.0);
  m.add_diagonal(1, 1.0);
  m.add_diagonal(2, 1.0);
  m.add_coupling(0, 2, 2.0);
  m.add_coupling(2, 0, 3.0);  // duplicate of (0,2), reversed order
  m.add_coupling(1, 2, 1.0);
  m.finalize();
  // Row 0: diag 1 + 5 coupling = 6; off-diag (0,2) = -5 merged.
  EXPECT_DOUBLE_EQ(m.diagonal(0), 6.0);
  EXPECT_DOUBLE_EQ(m.diagonal(2), 1.0 + 5.0 + 1.0);
  std::vector<double> x = {1.0, 0.0, 1.0};
  std::vector<double> y(3);
  m.multiply(x.data(), y.data());
  EXPECT_DOUBLE_EQ(y[0], 6.0 - 5.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
  EXPECT_DOUBLE_EQ(y[2], -5.0 + 7.0);
  // Columns within each row are sorted ascending.
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t p = m.row_ptr()[i] + 1; p < m.row_ptr()[i + 1]; ++p) {
      EXPECT_LT(m.col()[p - 1], m.col()[p]);
    }
  }
}

/// Checks x against a dense solve of `dense` x = b, and its true residual
/// ‖b - dense x‖ / ‖b‖ independently of the solver's recurrence estimate.
void expect_matches_dense(const Matrix& dense, const std::vector<double>& b,
                          const std::vector<double>& x) {
  const std::size_t n = b.size();
  double r2 = 0.0;
  double b2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double ax = 0.0;
    for (std::size_t j = 0; j < n; ++j) ax += dense(i, j) * x[j];
    r2 += (b[i] - ax) * (b[i] - ax);
    b2 += b[i] * b[i];
  }
  EXPECT_LE(std::sqrt(r2 / b2), 1e-8);
  const std::vector<double> x_ref = solve_linear(dense, b);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i], x_ref[i], 1e-7 * (1.0 + std::abs(x_ref[i]))) << "row " << i;
  }
}

TEST(Pcg, AllPreconditionersMatchDenseSolve) {
  // IC(0) is the one preconditioner; BiCGSTAB through it on the SPD network.
  constexpr std::size_t n = 90;
  Rng rng(11);
  Matrix dense(n, n);
  SparseMatrix m = random_network(n, 7, rng, &dense);
  m.finalize();
  PcgSolver solver(std::move(m), PcgParams{});

  std::vector<double> b(n);
  for (double& v : b) v = rng.uniform(-5, 5);
  std::vector<double> x(n, 0.0);
  const PcgSummary s = solver.solve(b.data(), x.data());
  EXPECT_TRUE(s.converged);
  EXPECT_LE(s.relative_residual, 1e-8);
  expect_matches_dense(dense, b, x);
}

TEST(Pcg, BiCgStabSolvesANonSymmetricMatrixFreeTerm) {
  // (A - K) x = b with K an "upstream" coupling applied matrix-free — each
  // node pulled by the nodes before it, the coolant march's shape — solved
  // by BiCGSTAB through A's IC(0), against a dense solve of A - K.
  constexpr std::size_t n = 90;
  constexpr std::size_t reach = 4;
  Rng rng(13);
  Matrix dense(n, n);
  SparseMatrix m = random_network(n, 7, rng, &dense);
  m.finalize();
  Matrix k(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i >= reach ? i - reach : 0; j < i; ++j) {
      k(i, j) = rng.uniform(0.0, 0.3);
      dense(i, j) -= k(i, j);
    }
  }
  const OperatorTerm minus_k = [&k](const double* v, double* y) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i >= reach ? i - reach : 0; j < i; ++j) {
        y[i] -= k(i, j) * v[j];
      }
    }
  };
  PcgSolver solver(std::move(m), PcgParams{});
  std::vector<double> b(n);
  for (double& v : b) v = rng.uniform(-5, 5);
  std::vector<double> x(n, 0.0);
  const PcgSummary s = solver.solve(b.data(), x.data(), minus_k);
  EXPECT_TRUE(s.converged);
  EXPECT_GE(s.iterations, 1u);
  EXPECT_LE(s.relative_residual, 1e-8);
  expect_matches_dense(dense, b, x);

  // Warm-started from its own answer it has nothing left to do.
  const PcgSummary again = solver.solve(b.data(), x.data(), minus_k);
  EXPECT_TRUE(again.converged);
  EXPECT_EQ(again.iterations, 0u);
}

TEST(Pcg, WarmStartFromSolutionConvergesInstantly) {
  constexpr std::size_t n = 120;
  Rng rng(31);
  SparseMatrix m = random_network(n, 6, rng);
  m.finalize();
  PcgSolver solver(std::move(m), PcgParams{});
  std::vector<double> b(n);
  for (double& v : b) v = rng.uniform(-2, 2);

  std::vector<double> cold(n, 0.0);
  const PcgSummary first = solver.solve(b.data(), cold.data());
  ASSERT_TRUE(first.converged);
  ASSERT_GE(first.iterations, 1u);

  std::vector<double> warm = cold;  // seed with the solution
  const PcgSummary again = solver.solve(b.data(), warm.data());
  EXPECT_TRUE(again.converged);
  EXPECT_EQ(again.iterations, 0u);
  EXPECT_EQ(solver.solves(), 2u);
}

TEST(Pcg, ZeroRhsReturnsZeroSolution) {
  SparseMatrix m(4);
  for (std::size_t i = 0; i < 4; ++i) m.add_diagonal(i, 2.0);
  m.add_coupling(0, 1, 1.0);
  m.finalize();
  PcgSolver solver(std::move(m), PcgParams{});
  std::vector<double> b(4, 0.0);
  std::vector<double> x(4, 7.0);  // stale guess must be overwritten
  const PcgSummary s = solver.solve(b.data(), x.data());
  EXPECT_TRUE(s.converged);
  for (double v : x) EXPECT_EQ(v, 0.0);
}

// -- Backend selection --------------------------------------------------------

TEST(SolverBackendSelection, AutoFollowsBandwidthCostModel) {
  // Every current grid (b <= 208) stays direct; paper-native bands go PCG.
  EXPECT_EQ(resolve_solver_backend(SolverBackend::kAuto, 1196, 52),
            SolverBackend::kDirect);
  EXPECT_EQ(resolve_solver_backend(SolverBackend::kAuto, 4784, 208),
            SolverBackend::kDirect);
  EXPECT_EQ(resolve_solver_backend(SolverBackend::kAuto, 200000, 1000),
            SolverBackend::kPcg);
  EXPECT_EQ(resolve_solver_backend(SolverBackend::kAuto, 400000, 2000),
            SolverBackend::kPcg);
  // Tiny systems clamp the bandwidth to n-1 — always direct.
  EXPECT_EQ(resolve_solver_backend(SolverBackend::kAuto, 16, 5000),
            SolverBackend::kDirect);
}

TEST(SolverBackendSelection, AutoKeepsEveryGridInUseDirect) {
  // The banded-LU cost model (~4b flops per solve) still resolves every
  // grid the tests, benchmarks and paper evaluation use to the direct
  // backend: the test grids up to the default 23 x 26 and the 46 x 52
  // refinement, on 2-, 3-, 4- and 8-layer stacks, wherever b = cols x
  // layers <= 208.
  const std::size_t grids[][2] = {{6, 7},   {8, 9},   {9, 10},  {10, 11},
                                  {12, 13}, {23, 26}, {46, 52}};
  std::size_t widest = 0;
  for (const auto& g : grids) {
    for (const std::size_t layers : {2u, 3u, 4u, 8u}) {
      const std::size_t b = g[1] * layers;
      if (b > 208) continue;
      widest = std::max(widest, b);
      EXPECT_EQ(resolve_solver_backend(SolverBackend::kAuto, g[0] * b, b),
                SolverBackend::kDirect)
          << g[0] << " x " << g[1] << " x " << layers;
    }
  }
  EXPECT_EQ(widest, 208u);
}

TEST(SolverBackendSelection, ExplicitRequestsPassThrough) {
  EXPECT_EQ(resolve_solver_backend(SolverBackend::kDirect, 200000, 1000),
            SolverBackend::kDirect);
  EXPECT_EQ(resolve_solver_backend(SolverBackend::kPcg, 100, 5),
            SolverBackend::kPcg);
}

TEST(SolverBackendSelection, NamesRoundTrip) {
  for (SolverBackend b :
       {SolverBackend::kAuto, SolverBackend::kDirect, SolverBackend::kPcg}) {
    EXPECT_EQ(solver_backend_from_name(to_string(b)), b);
  }
  EXPECT_THROW((void)solver_backend_from_name("bogus"), ConfigError);
}

// -- Model-level direct vs PCG agreement --------------------------------------

/// Largest per-node disagreement [K] allowed between the PCG and direct
/// backends on a liquid stack.  Both solve the same fluid-eliminated
/// system, PCG to a relative residual of PcgParams::tolerance (1e-10); that
/// leaves ~1e-8 K in a 45-110 °C field (at most 9e-8 K measured, in the
/// worst step of DefaultParamsTrackTheDirectStep's throttled 4-layer case).
/// A Krylov loop that stops early, or a coolant term that is off by one
/// cell, moves the field by millikelvins to kelvins.
constexpr double kPcgToleranceK = 1e-6;

double max_abs_diff(const ThermalModel3D& a, const ThermalModel3D& b) {
  const std::span<const double> ta = a.temperatures();
  const std::span<const double> tb = b.temperatures();
  double worst = 0.0;
  for (std::size_t i = 0; i < ta.size(); ++i) {
    worst = std::max(worst, std::abs(ta[i] - tb[i]));
  }
  return worst;
}

/// Sets every core of every layer to `core_watts` and every other block to 0.
void set_core_power(ThermalModel3D& m, double core_watts) {
  for (std::size_t l = 0; l < m.layer_count(); ++l) {
    const Floorplan& fp = m.stack().layer(l).floorplan;
    std::vector<double> watts(fp.block_count(), 0.0);
    for (std::size_t b = 0; b < fp.block_count(); ++b) {
      if (fp.block(b).type == BlockType::kCore) watts[b] = core_watts;
    }
    m.set_block_power(l, watts);
  }
}

/// Per-cavity flow of the lowest Laing DDC setting over `cavities` cavities.
VolumetricFlow lowest_setting_flow(std::size_t cavities) {
  const MicrochannelModel channels(CavitySpec{}, CoolantProperties::water());
  const FlowDelivery delivery(PumpModel::laing_ddc(),
                              FlowDeliveryMode::kPressureLimited, channels,
                              11.5e-3, cavities);
  return delivery.per_cavity(0);
}

/// Valve-throttled cavities: 2%, 10% and 30% (repeating) of the lowest
/// setting's per-cavity flow.  Here the fluid-eliminated rows are not
/// diagonally dominant (smallest |a_ii| / sum |a_ij| on the 10 x 11 grid:
/// 0.82 at dt = 0.05 s, 0.72 at steady state), the regime the unpivoted LU
/// has no a-priori stability guarantee for.  Both backends agree to ~1e-8 K
/// there.
std::vector<VolumetricFlow> throttled_flows(std::size_t cavities = 3) {
  const double lowest = lowest_setting_flow(cavities).ml_per_min();
  const double shares[] = {0.02, 0.10, 0.30};
  std::vector<VolumetricFlow> flows;
  for (std::size_t k = 0; k < cavities; ++k) {
    flows.push_back(VolumetricFlow::from_ml_per_min(shares[k % 3] * lowest));
  }
  return flows;
}

ThermalModel3D make_backend_model(SolverBackend backend, std::size_t rows,
                                  std::size_t cols, std::size_t pairs,
                                  CoolingType cooling = CoolingType::kLiquid) {
  ThermalModelParams p;
  p.grid_rows = rows;
  p.grid_cols = cols;
  p.solver_backend = backend;
  ThermalModel3D m(make_niagara_stack(pairs, cooling), p);
  const Floorplan& fp = m.stack().layer(0).floorplan;
  std::vector<double> watts(fp.block_count(), 0.0);
  for (std::size_t b = 0; b < fp.block_count(); ++b) {
    if (fp.block(b).type == BlockType::kCore) watts[b] = 2.8;
  }
  m.set_block_power(0, watts);
  return m;
}

TEST(PcgBackend, TransientStepsMatchDirectAcrossGrids) {
  struct Case {
    std::size_t rows, cols, pairs;
  };
  for (const Case c : {Case{8, 9, 1}, Case{6, 7, 2}, Case{12, 13, 1}}) {
    ThermalModel3D direct =
        make_backend_model(SolverBackend::kDirect, c.rows, c.cols, c.pairs);
    ThermalModel3D pcg =
        make_backend_model(SolverBackend::kPcg, c.rows, c.cols, c.pairs);
    EXPECT_EQ(direct.solver_backend(), SolverBackend::kDirect);
    EXPECT_EQ(pcg.solver_backend(), SolverBackend::kPcg);
    for (ThermalModel3D* m : {&direct, &pcg}) {
      m->set_cavity_flow(VolumetricFlow::from_ml_per_min(18.0));
      m->initialize(45.0);
      for (int i = 0; i < 25; ++i) m->step(0.1);
    }
    EXPECT_TRUE(pcg.last_pcg().converged);
    EXPECT_LE(pcg.last_pcg().relative_residual, 1e-8);
    for (std::size_t l = 0; l < direct.layer_count(); ++l) {
      for (std::size_t cell = 0; cell < direct.grid().cell_count(); ++cell) {
        ASSERT_NEAR(pcg.cell_temperature(l, cell),
                    direct.cell_temperature(l, cell), 5e-6)
            << c.rows << "x" << c.cols << " pairs=" << c.pairs << " layer " << l
            << " cell " << cell;
      }
    }
  }
}

TEST(PcgBackend, DefaultParamsTrackTheDirectStep) {
  // The PCG backend at its defaults (23 x 26 grid, PcgParams{}) against the
  // direct backend: 60 steps of 50 ms from 45 °C with the cores toggling
  // between 4 and 1.5 W every 5 steps, at the lowest pump setting and at
  // throttled flows, on 2- and 4-layer stacks.  Each PCG step is one
  // BiCGSTAB solve of the fluid-eliminated system, so it tracks the direct
  // step to solver precision.
  for (const std::size_t pairs : {1u, 2u}) {
    const std::size_t cavities = 2 * pairs + 1;
    for (const bool throttled : {false, true}) {
      SCOPED_TRACE(testing::Message() << 2 * pairs << " layers, "
                                      << (throttled ? "throttled" : "lowest setting"));
      const std::vector<VolumetricFlow> flows =
          throttled ? throttled_flows(cavities)
                    : std::vector<VolumetricFlow>(cavities, lowest_setting_flow(cavities));
      ThermalModelParams p;
      ThermalModel3D direct(make_niagara_stack(pairs, CoolingType::kLiquid), p);
      p.solver_backend = SolverBackend::kPcg;
      ThermalModel3D pcg(make_niagara_stack(pairs, CoolingType::kLiquid), p);
      ASSERT_EQ(direct.solver_backend(), SolverBackend::kDirect);
      for (ThermalModel3D* m : {&direct, &pcg}) {
        m->set_cavity_flow(flows);
        m->initialize(45.0);
      }
      double worst = 0.0;
      for (int step = 0; step < 60; ++step) {
        for (ThermalModel3D* m : {&direct, &pcg}) {
          set_core_power(*m, (step / 5) % 2 == 0 ? 4.0 : 1.5);
          m->step(0.05);
        }
        worst = std::max(worst, max_abs_diff(pcg, direct));
      }
      EXPECT_LE(worst, kPcgToleranceK);
      EXPECT_GT(direct.max_temperature(), 50.0);  // the power moved the field
      for (std::size_t k = 0; k < cavities; ++k) {
        EXPECT_NEAR(pcg.fluid_outlet_temperature(k),
                    direct.fluid_outlet_temperature(k), kPcgToleranceK);
        EXPECT_NEAR(pcg.cavity_absorbed_power(k), direct.cavity_absorbed_power(k),
                    1e-6);
      }
    }
  }
}

TEST(PcgBackend, TransientMatchesDirectOnAirStack) {
  ThermalModel3D direct = make_backend_model(SolverBackend::kDirect, 8, 9, 1,
                                             CoolingType::kAir);
  ThermalModel3D pcg =
      make_backend_model(SolverBackend::kPcg, 8, 9, 1, CoolingType::kAir);
  for (ThermalModel3D* m : {&direct, &pcg}) {
    m->initialize(45.0);
    for (int i = 0; i < 30; ++i) m->step(0.1);
  }
  EXPECT_NEAR(pcg.max_temperature(), direct.max_temperature(), 5e-6);
  EXPECT_NEAR(pcg.sink_temperature(), direct.sink_temperature(), 5e-6);
}

TEST(PcgBackend, SteadyStateMatchesDirectAcrossFlowsAndVectors) {
  // Both steady states are the implicit step at 1/dt = 0: one LU solve, or
  // one BiCGSTAB solve of the same fluid-eliminated operator.
  for (const double flow_ml : {6.0, 8.0, 25.0, 45.0}) {
    ThermalModel3D direct = make_backend_model(SolverBackend::kDirect, 9, 10, 1);
    ThermalModel3D pcg = make_backend_model(SolverBackend::kPcg, 9, 10, 1);
    for (ThermalModel3D* m : {&direct, &pcg}) {
      m->set_cavity_flow(VolumetricFlow::from_ml_per_min(flow_ml));
      m->initialize(45.0);
      m->solve_steady_state();
    }
    EXPECT_LE(max_abs_diff(pcg, direct), kPcgToleranceK) << "flow " << flow_ml;
    for (std::size_t cav = 0; cav < direct.stack().cavity_count(); ++cav) {
      EXPECT_NEAR(pcg.fluid_outlet_temperature(cav),
                  direct.fluid_outlet_temperature(cav), kPcgToleranceK);
    }
  }

  // Skewed per-cavity flow vectors: a valve-network operating point, and
  // throttled cavities on the 4-layer stack.
  const VolumetricFlow f = VolumetricFlow::from_ml_per_min(20.0);
  const std::vector<VolumetricFlow> skew = {f * 1.4, f * 1.0, f * 0.6};
  for (const std::size_t pairs : {1u, 2u}) {
    ThermalModel3D direct = make_backend_model(SolverBackend::kDirect, 9, 10, pairs);
    ThermalModel3D pcg = make_backend_model(SolverBackend::kPcg, 9, 10, pairs);
    for (ThermalModel3D* m : {&direct, &pcg}) {
      m->set_cavity_flow(pairs == 1 ? skew : throttled_flows(5));
      m->initialize(45.0);
      m->solve_steady_state();
    }
    EXPECT_LE(max_abs_diff(pcg, direct), kPcgToleranceK) << 2 * pairs << " layers";
  }
}

TEST(PcgBackend, CachesSystemsPerDt) {
  // One PCG system per model, keyed exactly by 1/dt: steps at one dt reuse
  // it, and a new dt or the steady state (1/dt = 0) rebuilds it in place.
  const obs::ScopedEnabled obs_on(true);
  const obs::Histogram& assemblies =
      obs::Registry::global().histogram("liquid3d_solver_assemble_seconds");
  ThermalModel3D m = make_backend_model(SolverBackend::kPcg, 6, 7, 1);
  m.set_cavity_flow(VolumetricFlow::from_ml_per_min(20.0));
  m.initialize(45.0);
  const std::uint64_t base = assemblies.count();
  m.step(0.05);
  m.step(0.05);
  m.step(0.05);
  EXPECT_EQ(assemblies.count() - base, 1u);
  m.step(0.1);
  m.step(0.1);
  EXPECT_EQ(assemblies.count() - base, 2u);
  m.solve_steady_state();
  m.solve_steady_state();
  EXPECT_EQ(assemblies.count() - base, 3u);
  m.step(0.1);
  EXPECT_EQ(assemblies.count() - base, 4u);
  EXPECT_EQ(ThermalModel3DTestAccess::lu_slot(m), nullptr);  // direct path never ran
}

TEST(PcgBackend, FingerprintSeparatesBackendsAndStepperFallsBack) {
  ThermalModel3D direct = make_backend_model(SolverBackend::kDirect, 6, 7, 1);
  ThermalModel3D pcg_a = make_backend_model(SolverBackend::kPcg, 6, 7, 1);
  ThermalModel3D pcg_b = make_backend_model(SolverBackend::kPcg, 6, 7, 1);
  ThermalModel3D serial = make_backend_model(SolverBackend::kPcg, 6, 7, 1);
  // Same topology, different backend: must not land in one batch group.
  EXPECT_NE(direct.topology_fingerprint(), pcg_a.topology_fingerprint());
  EXPECT_EQ(pcg_a.topology_fingerprint(), pcg_b.topology_fingerprint());

  std::vector<ThermalModel3D*> mixed = {&direct, &pcg_a};
  EXPECT_THROW(direct.share_factors_with(mixed), ConfigError);

  for (ThermalModel3D* m : {&pcg_a, &pcg_b, &serial}) {
    m->set_cavity_flow(VolumetricFlow::from_ml_per_min(15.0));
    m->initialize(45.0);
  }
  // Linked PCG models have no factor to share: each steps on its own.
  std::vector<ThermalModel3D*> batch = {&pcg_a, &pcg_b};
  for (ThermalModel3D* m : batch) m->share_factors_with(batch);
  for (int i = 0; i < 10; ++i) {
    for (ThermalModel3D* m : batch) m->step(0.05);
    serial.step(0.05);
  }
  EXPECT_EQ(ThermalModel3DTestAccess::lu_slot(pcg_a), nullptr);
  for (std::size_t l = 0; l < serial.layer_count(); ++l) {
    for (std::size_t cell = 0; cell < serial.grid().cell_count(); ++cell) {
      ASSERT_EQ(pcg_a.cell_temperature(l, cell), serial.cell_temperature(l, cell));
      ASSERT_EQ(pcg_b.cell_temperature(l, cell), serial.cell_temperature(l, cell));
    }
  }
}

// -- The direct backend's fluid-eliminated step ------------------------------

/// 2-layer liquid model with powered cores, on the given backend.
ThermalModel3D make_2layer_model(ThermalModelParams p) {
  p.grid_rows = 10;
  p.grid_cols = 11;
  ThermalModel3D m(make_2layer_system(), p);
  set_core_power(m, 3.0);
  return m;
}

/// The PCG backend at its defaults: the reference for the direct step.  It
/// solves the same fluid-eliminated system by BiCGSTAB, applying the
/// coolant as a march, so it never forms or factorizes the operator.
ThermalModelParams pcg_params() {
  ThermalModelParams p;
  p.solver_backend = SolverBackend::kPcg;
  return p;
}

TEST(EliminatedStep, IsAFixedPointOfTheSiliconFluidAlternation) {
  // After one direct step, one more silicon solve against the marched
  // fluid — the body of the silicon<->fluid fixed point the PCG backend
  // once iterated, kept as a test oracle — must not move any node.
  ThermalModel3D direct = make_2layer_model({});
  direct.set_cavity_flow(VolumetricFlow::from_ml_per_min(12.0));
  direct.initialize(45.0);
  for (int i = 0; i < 5; ++i) direct.step(0.05);
  ThermalState before;
  direct.save_state(before);
  direct.step(0.05);
  ThermalState after;
  direct.save_state(after);

  const std::vector<double> again =
      ThermalModel3DTestAccess::silicon_solve_against_fluid(
          direct, 1.0 / 0.05, before.temps, after.fluid_temp);
  for (std::size_t i = 0; i < direct.node_count(); ++i) {
    ASSERT_NEAR(again[i], after.temps[i], 1e-9) << "node " << i;
  }
}

TEST(EliminatedStep, MatchesAConvergedPcgFixedPointAcrossAPumpChange) {
  // The PCG backend's BiCGSTAB solve of the same operator, at its default
  // tolerance, must reach the eliminated LU step's answer.
  ThermalModel3D direct = make_2layer_model({});
  ThermalModel3D pcg = make_2layer_model(pcg_params());
  for (ThermalModel3D* m : {&direct, &pcg}) {
    m->set_cavity_flow(VolumetricFlow::from_ml_per_min(10.0));
    m->initialize(45.0);
  }
  const obs::ScopedEnabled obs_on(true);
  const std::uint64_t factorizations = factorization_count();
  for (int i = 0; i < 40; ++i) {
    if (i == 20) {  // a pump-setting change mid-run
      for (ThermalModel3D* m : {&direct, &pcg}) {
        m->set_cavity_flow(VolumetricFlow::from_ml_per_min(25.0));
      }
    }
    direct.step(0.05);
    pcg.step(0.05);
  }
  EXPECT_EQ(factorization_count() - factorizations, 2u);
  EXPECT_LE(max_abs_diff(pcg, direct), kPcgToleranceK);
  for (std::size_t k = 0; k < direct.stack().cavity_count(); ++k) {
    EXPECT_NEAR(pcg.fluid_outlet_temperature(k),
                direct.fluid_outlet_temperature(k), kPcgToleranceK);
  }
}

TEST(EliminatedStep, MatchesAConvergedPcgFixedPointAtThrottledFlows) {
  // The PCG solve never goes through the LU, so agreement here is an
  // independent check of the direct step where dominance does not hold.
  ThermalModel3D direct = make_2layer_model({});
  ThermalModel3D pcg = make_2layer_model(pcg_params());
  ASSERT_EQ(direct.stack().cavity_count(), 3u);
  for (ThermalModel3D* m : {&direct, &pcg}) {
    m->set_cavity_flow(throttled_flows());
    m->initialize(45.0);
  }
  for (int i = 0; i < 40; ++i) {
    direct.step(0.05);
    pcg.step(0.05);
  }
  EXPECT_LE(max_abs_diff(pcg, direct), kPcgToleranceK);
  for (std::size_t k = 0; k < direct.stack().cavity_count(); ++k) {
    EXPECT_NEAR(pcg.fluid_outlet_temperature(k),
                direct.fluid_outlet_temperature(k), kPcgToleranceK);
  }
}

TEST(EliminatedStep, SteadySolveMatchesPcgContinuationAtThrottledFlows) {
  // The direct steady state is one LU solve at 1/dt = 0, the least
  // dominant form of the operator; the PCG backend reaches the same state
  // by one BiCGSTAB solve at 1/dt = 0.
  ThermalModel3D direct = make_2layer_model({});
  ThermalModel3D pcg = make_2layer_model(pcg_params());
  for (ThermalModel3D* m : {&direct, &pcg}) {
    m->set_cavity_flow(throttled_flows());
    m->initialize(45.0);
    m->solve_steady_state();
  }
  EXPECT_GT(direct.max_temperature(), 60.0);  // a genuinely throttled point
  EXPECT_LE(max_abs_diff(pcg, direct), kPcgToleranceK);
}

}  // namespace
}  // namespace liquid3d
