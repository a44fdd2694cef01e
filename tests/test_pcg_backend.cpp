// Iterative thermal backend (thermal/solver/{sparse_matrix,pcg,backend}):
// CSR assembly, preconditioned CG against the dense and banded direct
// solvers, warm starts, the bandwidth cost-model cutover, and
// direct-vs-PCG agreement of full ThermalModel3D transient and steady
// solves across grids, stacks, and flow vectors — including the direct
// backend's fluid-eliminated step against a converged PCG fixed point.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
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

TEST(Pcg, AllPreconditionersMatchDenseSolve) {
  constexpr std::size_t n = 90;
  for (const PcgPreconditioner pre :
       {PcgPreconditioner::kJacobi, PcgPreconditioner::kSsor,
        PcgPreconditioner::kIncompleteCholesky}) {
    Rng rng(11);
    Matrix dense(n, n);
    SparseMatrix m = random_network(n, 7, rng, &dense);
    m.finalize();
    PcgParams params;
    params.preconditioner = pre;
    PcgSolver solver(std::move(m), params);

    std::vector<double> b(n);
    for (double& v : b) v = rng.uniform(-5, 5);
    std::vector<double> x(n, 0.0);
    const PcgSummary s = solver.solve(b.data(), x.data());
    EXPECT_TRUE(s.converged) << to_string(pre);
    EXPECT_LE(s.relative_residual, 1e-8);

    // True residual, independently of the recurrence estimate.
    std::vector<double> ax(n);
    solver.matrix().multiply(x.data(), ax.data());
    double r2 = 0.0;
    double b2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      r2 += (b[i] - ax[i]) * (b[i] - ax[i]);
      b2 += b[i] * b[i];
    }
    EXPECT_LE(std::sqrt(r2 / b2), 1e-8) << to_string(pre);

    const std::vector<double> x_ref = solve_linear(dense, b);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(x[i], x_ref[i], 1e-7 * (1.0 + std::abs(x_ref[i])))
          << to_string(pre) << " row " << i;
    }
  }
}

TEST(Pcg, PreconditionersRankAsExpected) {
  // IC(0) must not iterate more than SSOR, which must not iterate more
  // than plain Jacobi — on the stencil-like networks the backend serves.
  constexpr std::size_t n = 200;
  std::vector<std::size_t> iters;
  for (const PcgPreconditioner pre :
       {PcgPreconditioner::kIncompleteCholesky, PcgPreconditioner::kSsor,
        PcgPreconditioner::kJacobi}) {
    Rng rng(23);
    SparseMatrix m = random_network(n, 5, rng);
    m.finalize();
    PcgParams params;
    params.preconditioner = pre;
    PcgSolver solver(std::move(m), params);
    std::vector<double> b(n, 1.0);
    std::vector<double> x(n, 0.0);
    const PcgSummary s = solver.solve(b.data(), x.data());
    ASSERT_TRUE(s.converged);
    iters.push_back(s.iterations);
  }
  EXPECT_LE(iters[0], iters[1]);  // ic0 <= ssor
  EXPECT_LE(iters[1], iters[2]);  // ssor <= jacobi
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
  for (PcgPreconditioner p :
       {PcgPreconditioner::kJacobi, PcgPreconditioner::kSsor,
        PcgPreconditioner::kIncompleteCholesky}) {
    EXPECT_EQ(pcg_preconditioner_from_name(to_string(p)), p);
  }
  EXPECT_THROW((void)pcg_preconditioner_from_name("bogus"), ConfigError);
}

// -- Model-level direct vs PCG agreement --------------------------------------

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
  for (const double flow_ml : {6.0, 8.0, 25.0, 45.0}) {
    ThermalModel3D direct = make_backend_model(SolverBackend::kDirect, 9, 10, 1);
    ThermalModel3D pcg = make_backend_model(SolverBackend::kPcg, 9, 10, 1);
    for (ThermalModel3D* m : {&direct, &pcg}) {
      m->set_cavity_flow(VolumetricFlow::from_ml_per_min(flow_ml));
      m->initialize(45.0);
      m->solve_steady_state();
    }
    // Direct backend solves the fluid-eliminated system exactly; the PCG
    // backend stops its pseudo-transient continuation at the 1e-4 K
    // criterion.
    EXPECT_NEAR(pcg.max_temperature(), direct.max_temperature(), 5e-3)
        << "flow " << flow_ml;
    for (std::size_t cav = 0; cav < direct.stack().cavity_count(); ++cav) {
      EXPECT_NEAR(pcg.fluid_outlet_temperature(cav),
                  direct.fluid_outlet_temperature(cav), 5e-3);
    }
  }

  // Skewed per-cavity flow vector (valve-network operating point).
  ThermalModel3D direct = make_backend_model(SolverBackend::kDirect, 9, 10, 1);
  ThermalModel3D pcg = make_backend_model(SolverBackend::kPcg, 9, 10, 1);
  const VolumetricFlow f = VolumetricFlow::from_ml_per_min(20.0);
  const std::vector<VolumetricFlow> skew = {f * 1.4, f * 1.0, f * 0.6};
  for (ThermalModel3D* m : {&direct, &pcg}) {
    m->set_cavity_flow(skew);
    m->initialize(45.0);
    m->solve_steady_state();
  }
  EXPECT_NEAR(pcg.max_temperature(), direct.max_temperature(), 5e-3);
}

TEST(PcgBackend, CachesSystemsPerDt) {
  ThermalModel3D m = make_backend_model(SolverBackend::kPcg, 6, 7, 1);
  m.set_cavity_flow(VolumetricFlow::from_ml_per_min(20.0));
  m.initialize(45.0);
  m.step(0.05);
  m.step(0.1);
  m.step(0.05);
  m.step(0.1);
  EXPECT_EQ(m.pcg_cache().misses(), 2u);
  EXPECT_GE(m.pcg_cache().hits(), 2u);
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
  for (std::size_t l = 0; l < m.layer_count(); ++l) {
    const Floorplan& fp = m.stack().layer(l).floorplan;
    std::vector<double> watts(fp.block_count(), 0.0);
    for (std::size_t b = 0; b < fp.block_count(); ++b) {
      if (fp.block(b).type == BlockType::kCore) watts[b] = 3.0;
    }
    m.set_block_power(l, watts);
  }
  return m;
}

/// A very tight PCG backend: the reference for the direct step.
ThermalModelParams tight_pcg_params() {
  ThermalModelParams p;
  p.solver_backend = SolverBackend::kPcg;
  p.pcg.tolerance = 1e-14;
  p.pcg.max_iterations = 5000;
  return p;
}

TEST(EliminatedStep, IsAFixedPointOfTheSiliconFluidAlternation) {
  // After one direct step, one more silicon solve against the marched
  // fluid — the body of the old fixed-point loop, run here by a PCG twin
  // limited to one fluid iteration — must not move any node.
  ThermalModel3D direct = make_2layer_model({});
  direct.set_cavity_flow(VolumetricFlow::from_ml_per_min(12.0));
  direct.initialize(45.0);
  for (int i = 0; i < 5; ++i) direct.step(0.05);
  ThermalState before;
  direct.save_state(before);
  direct.step(0.05);
  ThermalState after;
  direct.save_state(after);

  ThermalModelParams p = tight_pcg_params();
  p.max_fluid_iterations = 1;
  ThermalModel3D twin = make_2layer_model(p);
  twin.set_cavity_flow(VolumetricFlow::from_ml_per_min(12.0));
  ThermalState start = after;
  start.temps = before.temps;  // T_prev, with the fluid marched from T_new
  twin.restore_state(start);
  twin.step(0.05);
  ASSERT_TRUE(twin.last_pcg().converged);
  for (std::size_t l = 0; l < direct.layer_count(); ++l) {
    for (std::size_t c = 0; c < direct.grid().cell_count(); ++c) {
      ASSERT_NEAR(twin.cell_temperature(l, c), direct.cell_temperature(l, c), 1e-9)
          << "layer " << l << " cell " << c;
    }
  }
}

TEST(EliminatedStep, MatchesAConvergedPcgFixedPointAcrossAPumpChange) {
  // The PCG backend still alternates silicon solves with the fluid march;
  // iterated to convergence it must reach the eliminated step's answer.
  ThermalModelParams p = tight_pcg_params();
  p.fluid_tolerance = 1e-10;
  p.max_fluid_iterations = 500;
  ThermalModel3D direct = make_2layer_model({});
  ThermalModel3D pcg = make_2layer_model(p);
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
  for (std::size_t l = 0; l < direct.layer_count(); ++l) {
    for (std::size_t c = 0; c < direct.grid().cell_count(); ++c) {
      ASSERT_NEAR(pcg.cell_temperature(l, c), direct.cell_temperature(l, c), 1e-6)
          << "layer " << l << " cell " << c;
    }
  }
  for (std::size_t k = 0; k < direct.stack().cavity_count(); ++k) {
    EXPECT_NEAR(pcg.fluid_outlet_temperature(k),
                direct.fluid_outlet_temperature(k), 1e-6);
  }
}

/// Valve-throttled cavities: 2%, 10% and 30% of the lowest Laing DDC
/// setting's per-cavity flow.  Here the fluid-eliminated rows are not
/// diagonally dominant (smallest |a_ii| / sum |a_ij| on the 10 x 11 grid:
/// 0.82 at dt = 0.05 s, 0.72 at steady state), the regime the unpivoted LU
/// has no a-priori stability guarantee for.  Both backends agree to ~1e-8 K
/// there.
std::vector<VolumetricFlow> throttled_flows() {
  const MicrochannelModel channels(CavitySpec{}, CoolantProperties::water());
  const FlowDelivery delivery(PumpModel::laing_ddc(),
                              FlowDeliveryMode::kPressureLimited, channels,
                              11.5e-3, 3);
  const double lowest = delivery.per_cavity(0).ml_per_min();
  return {VolumetricFlow::from_ml_per_min(0.02 * lowest),
          VolumetricFlow::from_ml_per_min(0.10 * lowest),
          VolumetricFlow::from_ml_per_min(0.30 * lowest)};
}

TEST(EliminatedStep, MatchesAConvergedPcgFixedPointAtThrottledFlows) {
  // The PCG fixed point never goes through the LU, so agreement here is an
  // independent check of the direct step where dominance does not hold.
  ThermalModelParams p = tight_pcg_params();
  p.fluid_tolerance = 1e-10;
  p.max_fluid_iterations = 500;
  ThermalModel3D direct = make_2layer_model({});
  ThermalModel3D pcg = make_2layer_model(p);
  ASSERT_EQ(direct.stack().cavity_count(), 3u);
  for (ThermalModel3D* m : {&direct, &pcg}) {
    m->set_cavity_flow(throttled_flows());
    m->initialize(45.0);
  }
  for (int i = 0; i < 40; ++i) {
    direct.step(0.05);
    pcg.step(0.05);
  }
  for (std::size_t l = 0; l < direct.layer_count(); ++l) {
    for (std::size_t c = 0; c < direct.grid().cell_count(); ++c) {
      ASSERT_NEAR(pcg.cell_temperature(l, c), direct.cell_temperature(l, c), 1e-6)
          << "layer " << l << " cell " << c;
    }
  }
  for (std::size_t k = 0; k < direct.stack().cavity_count(); ++k) {
    EXPECT_NEAR(pcg.fluid_outlet_temperature(k),
                direct.fluid_outlet_temperature(k), 1e-6);
  }
}

TEST(EliminatedStep, SteadySolveMatchesPcgContinuationAtThrottledFlows) {
  // The direct steady state is one LU solve at 1/dt = 0, the least
  // dominant form of the operator; the PCG backend reaches the same state
  // by pseudo-transient continuation.
  ThermalModelParams p = tight_pcg_params();
  p.fluid_tolerance = 1e-10;
  p.steady_fluid_iterations = 500;
  p.steady_tolerance = 1e-10;
  ThermalModel3D direct = make_2layer_model({});
  ThermalModel3D pcg = make_2layer_model(p);
  for (ThermalModel3D* m : {&direct, &pcg}) {
    m->set_cavity_flow(throttled_flows());
    m->initialize(45.0);
    m->solve_steady_state();
  }
  EXPECT_GT(direct.max_temperature(), 60.0);  // a genuinely throttled point
  for (std::size_t l = 0; l < direct.layer_count(); ++l) {
    for (std::size_t c = 0; c < direct.grid().cell_count(); ++c) {
      ASSERT_NEAR(pcg.cell_temperature(l, c), direct.cell_temperature(l, c), 1e-6)
          << "layer " << l << " cell " << c;
    }
  }
}

}  // namespace
}  // namespace liquid3d
