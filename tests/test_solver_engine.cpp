// Solver engine (thermal/solver/): the banded LU on symmetric conduction
// networks (the air operator) and on general dominant bands against the
// dense solver, refactorization after set_zero, the blocked banded LU and
// direct-write eliminated assembly against their unblocked references (bit
// for bit), multi-right-hand-side solves against single ones (bit for
// bit), the fluid-eliminated step against a dense partially pivoted LU,
// the models' LU slots, and the no-allocation guarantee of the transient
// hot loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/linalg.hpp"
#include "common/rng.hpp"
#include "coolant/flow.hpp"
#include "coolant/microchannel.hpp"
#include "coolant/pump.hpp"
#include "geom/stack.hpp"
#include "thermal/model3d.hpp"
#include "thermal/solver/banded_lu.hpp"
#include "reference_banded_lu.hpp"
#include "reference_dense_lu.hpp"
#include "thermal_test_access.hpp"

// -- Global allocation counter ----------------------------------------------
//
// Replacing the global operator new/delete in this TU instruments every heap
// allocation in the test binary; the hot-loop test below asserts the count
// stays flat across 1000 warmed-up steps.
namespace {
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace liquid3d {
namespace {

/// Random conduction network restricted to a half-bandwidth of bw: a
/// positive diagonal (capacitance) plus symmetric couplings — the structure
/// of the air operator C/dt + G, stamped as ThermalModel3D stamps it.
BandedLuMatrix random_network(std::size_t n, std::size_t bw, Rng& rng,
                              Matrix* dense = nullptr) {
  BandedLuMatrix banded(n, bw, bw);
  for (std::size_t i = 0; i < n; ++i) {
    const double c = 0.5 + rng.uniform();
    banded.add_diagonal(i, c);
    if (dense) (*dense)(i, i) += c;
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < std::min(n, i + bw + 1); ++j) {
      if (!rng.bernoulli(0.4)) continue;
      const double g = rng.uniform(0.1, 2.0);
      banded.add_coupling(i, j, g);
      if (dense) {
        (*dense)(i, i) += g;
        (*dense)(j, j) += g;
        (*dense)(i, j) -= g;
        (*dense)(j, i) -= g;
      }
    }
  }
  return banded;
}

TEST(SolverEngine, RefactorizeAfterSetZero) {
  constexpr std::size_t n = 40;
  constexpr std::size_t bw = 6;
  Rng rng(13);
  BandedLuMatrix m = random_network(n, bw, rng);
  m.factorize();
  ASSERT_TRUE(m.factorized());

  // Rebuild with a different network and factorize again; the solution must
  // match a fresh matrix assembled identically.
  m.set_zero();
  EXPECT_FALSE(m.factorized());
  Rng rng2(14);
  Matrix dense(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const double c = 0.5 + rng2.uniform();
    m.add_diagonal(i, c);
    dense(i, i) += c;
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < std::min(n, i + bw + 1); ++j) {
      if (!rng2.bernoulli(0.4)) continue;
      const double g = rng2.uniform(0.1, 2.0);
      m.add_coupling(i, j, g);
      dense(i, i) += g;
      dense(j, j) += g;
      dense(i, j) -= g;
      dense(j, i) -= g;
    }
  }
  m.factorize();
  std::vector<double> rhs(n, 1.0);
  std::vector<double> x = rhs;
  m.solve(x);
  const std::vector<double> x_ref = solve_linear(dense, rhs);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i], x_ref[i], 1e-8 * (1.0 + std::abs(x_ref[i])));
  }
}

// -- Banded LU (non-symmetric) ----------------------------------------------

TEST(BandedLu, MatchesDenseSolverOnRandomDiagDominant) {
  constexpr std::size_t n = 70;
  constexpr std::size_t bl = 8;
  constexpr std::size_t bu = 5;
  Rng rng(21);
  BandedLuMatrix m(n, bl, bu);
  Matrix dense(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const bool in_band = (j <= i && i - j <= bl) || (j > i && j - i <= bu);
      if (!in_band || (i != j && !rng.bernoulli(0.5))) continue;
      const double v = (i == j) ? 0.0 : rng.uniform(-1.0, 1.0);
      if (i != j) {
        m.add(i, j, v);
        dense(i, j) += v;
      }
    }
  }
  // Strict diagonal dominance guarantees the unpivoted factorization.
  for (std::size_t i = 0; i < n; ++i) {
    double row_sum = 1.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) row_sum += std::abs(dense(i, j));
    }
    m.add(i, i, row_sum);
    dense(i, i) += row_sum;
  }
  m.factorize();
  std::vector<double> b(n);
  for (double& v : b) v = rng.uniform(-3, 3);
  std::vector<double> x = b;
  m.solve(x);
  const std::vector<double> x_ref = solve_linear(dense, b);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i], x_ref[i], 1e-9 * (1.0 + std::abs(x_ref[i])));
  }

  // The air pattern: a symmetric conduction network with bl = bu, whose
  // row sums are the positive diagonal terms alone (dominant, not by a
  // margin added on top).
  Matrix sym_dense(n, n);
  BandedLuMatrix sym = random_network(n, bl, rng, &sym_dense);
  sym.factorize();
  std::vector<double> y = b;
  sym.solve(y);
  const std::vector<double> y_ref = solve_linear(sym_dense, b);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i], y_ref[i], 1e-9 * (1.0 + std::abs(y_ref[i])));
  }
}

TEST(BandedLu, SolvesSmallKnownSystem) {
  // Tridiagonal Laplacian-like system stamped as a conduction network.
  BandedLuMatrix m(4, 1, 1);
  for (std::size_t i = 0; i < 4; ++i) m.add_diagonal(i, 2.0);
  for (std::size_t i = 0; i + 1 < 4; ++i) m.add_coupling(i, i + 1, 1.0);
  // add_coupling adds +1 to both diagonals and -1 off-diagonal:
  // diag = [3,4,4,3], off = -1.
  m.factorize();
  std::vector<double> rhs = {1, 0, 0, 1};
  m.solve(rhs);
  // Verify by residual against the explicit matrix.
  const double d[4] = {3, 4, 4, 3};
  for (std::size_t i = 0; i < 4; ++i) {
    double ax = d[i] * rhs[i];
    if (i > 0) ax -= rhs[i - 1];
    if (i < 3) ax += -rhs[i + 1];
    const double b = (i == 0 || i == 3) ? 1.0 : 0.0;
    EXPECT_NEAR(ax, b, 1e-12);
  }
}

struct BandCase {
  std::size_t n;
  std::size_t bandwidth;
  std::uint64_t seed;
};

class BandedSweep : public ::testing::TestWithParam<BandCase> {};

TEST_P(BandedSweep, MatchesDenseSolver) {
  // Random conduction networks (the air operator's structure) across band
  // shapes, against the dense solver.
  const auto [n, bw, seed] = GetParam();
  Rng rng(seed);
  Matrix dense(n, n);
  BandedLuMatrix banded = random_network(n, bw, rng, &dense);
  std::vector<double> b(n);
  for (double& v : b) v = rng.uniform(-3, 3);
  banded.factorize();
  std::vector<double> x_banded = b;
  banded.solve(x_banded);
  const std::vector<double> x_dense = solve_linear(dense, b);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x_banded[i], x_dense[i], 1e-8 * (1.0 + std::abs(x_dense[i])));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BandedSweep,
    ::testing::Values(BandCase{10, 1, 1}, BandCase{25, 3, 2}, BandCase{50, 7, 3},
                      BandCase{80, 12, 4}, BandCase{120, 20, 5}, BandCase{64, 63, 6},
                      BandCase{200, 2, 7}));

TEST(BandedLu, MultipleSolvesReuseFactorization) {
  BandedLuMatrix m(3, 1, 1);
  for (std::size_t i = 0; i < 3; ++i) m.add_diagonal(i, 1.0);
  m.add_coupling(0, 1, 0.5);
  m.add_coupling(1, 2, 0.5);
  m.factorize();
  for (double scale : {1.0, 2.0, -3.0}) {
    std::vector<double> rhs = {scale, 0.0, 0.0};
    m.solve(rhs);
    EXPECT_NE(rhs[0], 0.0);
    // Linearity: solution scales with rhs.
    std::vector<double> rhs2 = {2.0 * scale, 0.0, 0.0};
    m.solve(rhs2);
    EXPECT_NEAR(rhs2[0], 2.0 * rhs[0], 1e-12);
  }
}

TEST(BandedLu, RhsSizeMismatchRejected) {
  BandedLuMatrix m(3, 1, 1);
  for (std::size_t i = 0; i < 3; ++i) m.add_diagonal(i, 1.0);
  m.factorize();
  std::vector<double> bad = {1.0, 2.0};
  EXPECT_THROW(m.solve(bad), ConfigError);
}

TEST(BandedLu, VanishingPivotDetected) {
  // Breakdown is a numerical outcome of the operating point (the eliminated
  // rows lose diagonal dominance at throttled flows), not a bug: a
  // SolverError the sweep's quarantine ladder can record.
  BandedLuMatrix m(2, 1, 1);
  m.add(0, 1, 1.0);
  m.add(1, 0, 1.0);  // zero diagonal -> zero pivot
  EXPECT_THROW(m.factorize(), SolverError);
  BandedLuMatrix late(3, 1, 1);
  late.add(0, 0, 1.0);
  late.add(1, 1, 1.0);
  late.add(1, 2, 1.0);
  late.add(2, 1, 1.0);
  late.add(2, 2, 1.0);  // A(2,2) - L(2,1) U(1,2) = 0
  try {
    late.factorize();
    ADD_FAILURE() << "factorize() accepted a zero pivot";
  } catch (const SolverError& e) {
    EXPECT_EQ(e.backend(), "direct");
    EXPECT_EQ(e.iterations(), 2u);  // the failing pivot's index
    EXPECT_EQ(e.residual(), 0.0);
  }
}

TEST(BandedLu, NonFinitePivotDetected) {
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    BandedLuMatrix m(3, 1, 1);
    m.add(0, 0, 2.0);
    m.add(1, 1, bad);
    m.add(2, 2, 2.0);
    EXPECT_THROW(m.factorize(), SolverError);
  }
}

// -- Blocked banded LU == the unblocked kernels, bit for bit ----------------

/// The factor and solution bytes of `a` (unfactorized) under the blocked
/// kernels must equal those of tests/reference_banded_lu.hpp.
void expect_lu_matches_reference(BandedLuMatrix a, std::vector<double> rhs) {
  const std::size_t n = a.size();
  std::vector<double> ref(a.band().begin(), a.band().end());
  a.factorize();
  reference::banded_lu_factorize(ref, n, a.lower_bandwidth(), a.upper_bandwidth());
  ASSERT_EQ(ref.size(), a.band().size());
  EXPECT_EQ(std::memcmp(a.band().data(), ref.data(), ref.size() * sizeof(double)), 0)
      << "factor differs from the unblocked kernel's";
  std::vector<double> x = rhs;
  a.solve(x);
  reference::banded_lu_solve(ref, n, a.lower_bandwidth(), a.upper_bandwidth(), rhs);
  EXPECT_EQ(std::memcmp(x.data(), rhs.data(), n * sizeof(double)), 0)
      << "solution differs from the unblocked kernel's";
}

/// Random strictly diagonally dominant band; `density` of the off-diagonal
/// band entries are nonzero, so sparse draws exercise the kernels' skipping
/// of zero coefficients.
BandedLuMatrix random_dominant_band(std::size_t n, std::size_t bl, std::size_t bu,
                                    double density, Rng& rng) {
  BandedLuMatrix m(n, bl, bu);
  for (std::size_t i = 0; i < n; ++i) {
    double off = 0.0;
    const std::size_t j0 = i >= bl ? i - bl : 0;
    const std::size_t j1 = std::min(n - 1, i + bu);
    for (std::size_t j = j0; j <= j1; ++j) {
      if (j == i || !rng.bernoulli(density)) continue;
      const double v = rng.uniform(-1.0, 1.0);
      m.add(i, j, v);
      off += std::abs(v);
    }
    m.add(i, i, (1.0 + off) * rng.uniform(1.0, 2.0));
  }
  return m;
}

TEST(BandedLu, BlockedKernelsMatchUnblockedAtEdgeShapes) {
  // n = 1, n below the block length, n not a multiple of it, bl != bu,
  // bandwidths of 0 and 1, and bands wider than the matrix.
  struct Shape {
    std::size_t n, bl, bu;
  };
  const Shape shapes[] = {{1, 0, 0},   {1, 2, 3},   {2, 1, 1},   {3, 2, 0},
                          {3, 0, 2},   {5, 1, 0},   {5, 0, 1},   {6, 1, 1},
                          {7, 3, 1},   {9, 4, 4},   {13, 5, 2},  {13, 2, 5},
                          {17, 6, 6},  {64, 0, 9},  {64, 9, 0},  {70, 8, 5},
                          {70, 5, 8},  {101, 12, 12}, {130, 30, 17}, {41, 60, 60}};
  Rng rng(14);
  for (const Shape& sh : shapes) {
    for (const double density : {0.25, 1.0}) {
      SCOPED_TRACE(::testing::Message() << "n=" << sh.n << " bl=" << sh.bl
                                        << " bu=" << sh.bu << " density=" << density);
      std::vector<double> rhs(sh.n);
      for (double& v : rhs) v = rng.bernoulli(0.2) ? 0.0 : rng.uniform(-3.0, 3.0);
      expect_lu_matches_reference(random_dominant_band(sh.n, sh.bl, sh.bu, density, rng),
                                  rhs);
    }
  }
}

TEST(BandedLu, LeadingZeroRightHandSideMatchesUnblocked) {
  // Sparse right-hand sides (the ROM build's influence columns start with
  // a long run of zeros) take the leading-zero start.
  Rng rng(15);
  const BandedLuMatrix a = random_dominant_band(301, 26, 26, 0.7, rng);
  for (const std::size_t first : {0u, 1u, 150u, 271u, 300u, 301u}) {
    SCOPED_TRACE(first);
    std::vector<double> rhs(a.size(), 0.0);
    for (std::size_t i = first; i < a.size(); ++i) rhs[i] = rng.uniform(-1.0, 1.0);
    expect_lu_matches_reference(a, rhs);
  }
}

TEST(BandedLu, EliminatedOperatorsMatchUnblockedAndReferenceAssembly) {
  // The real fluid-eliminated operators of the 2- and 4-layer Niagara
  // stacks (paper grid) at all five pump settings and at a 2% throttled
  // flow — where the rows are not diagonally dominant — for a transient
  // step (1/dt = 20) and the steady state (1/dt = 0): the direct-write
  // assembly equals the reference assembly bit for bit, and the blocked
  // factor and solve equal the unblocked ones bit for bit.
  const MicrochannelModel channels(CavitySpec{}, CoolantProperties::water());
  for (const std::size_t pairs : {1u, 2u}) {
    for (const bool alternate : {false, true}) {
      if (pairs == 2 && alternate) continue;
      ThermalModelParams p;
      p.alternate_flow_direction = alternate;
      ThermalModel3D model(make_niagara_stack(pairs, CoolingType::kLiquid), p);
      const FlowDelivery delivery(PumpModel::laing_ddc(),
                                  FlowDeliveryMode::kPressureLimited, channels, 11.5e-3,
                                  model.stack().cavity_count());
      ASSERT_EQ(delivery.setting_count(), 5u);
      const std::size_t bw = model.grid().cols() * model.layer_count();
      Rng rng(16);
      std::vector<double> rhs(model.node_count());
      for (double& v : rhs) v = rng.uniform(0.0, 3.0);
      for (std::size_t s = 0; s <= 5; ++s) {
        model.set_cavity_flow(s < 5 ? delivery.per_cavity(s) : delivery.per_cavity(0) * 0.02);
        for (const double inv_dt : {20.0, 0.0}) {
          SCOPED_TRACE(::testing::Message() << "pairs=" << pairs << " alternate=" << alternate
                                            << " setting=" << s << " inv_dt=" << inv_dt);
          BandedLuMatrix a(model.node_count(), bw, bw);
          BandedLuMatrix ref(model.node_count(), bw, bw);
          std::vector<double> inlet, ref_inlet;
          ThermalModel3DTestAccess::build_eliminated_system(model, inv_dt, a, inlet);
          ThermalModel3DTestAccess::reference_build_eliminated_system(model, inv_dt, ref,
                                                                      ref_inlet);
          EXPECT_EQ(std::memcmp(a.band().data(), ref.band().data(),
                                a.band().size() * sizeof(double)),
                    0)
              << "assembled operator differs from the reference assembly";
          ASSERT_EQ(inlet.size(), ref_inlet.size());
          EXPECT_EQ(std::memcmp(inlet.data(), ref_inlet.data(), inlet.size() * sizeof(double)),
                    0)
              << "inlet coefficients differ from the reference assembly";
          expect_lu_matches_reference(a, rhs);
        }
      }
    }
  }
}

/// Solve the n x k column block `block` through the factorized `lu` in one
/// call: every column must equal, byte for byte, its own single solve and
/// the unblocked reference solve.
void expect_many_match_single(const BandedLuMatrix& lu, const std::vector<double>& block) {
  const std::size_t n = lu.size();
  const std::vector<double> band(lu.band().begin(), lu.band().end());
  std::vector<double> x = block;
  lu.solve(x);
  for (std::size_t j = 0; j < block.size() / n; ++j) {
    SCOPED_TRACE(::testing::Message() << "column " << j);
    std::vector<double> single(block.begin() + j * n, block.begin() + (j + 1) * n);
    std::vector<double> ref = single;
    lu.solve(single);
    reference::banded_lu_solve(band, n, lu.lower_bandwidth(), lu.upper_bandwidth(), ref);
    EXPECT_EQ(std::memcmp(x.data() + j * n, single.data(), n * sizeof(double)), 0)
        << "column differs from its single solve";
    EXPECT_EQ(std::memcmp(x.data() + j * n, ref.data(), n * sizeof(double)), 0)
        << "column differs from the unblocked kernel's";
  }
}

TEST(BandedLu, ManyRightHandSidesMatchSingleSolves) {
  // A ragged n (a multiple of neither the 4-unknown block nor the
  // 4-column group) with bl != bu.  Row 150 has nothing left of its
  // diagonal, so L's row 150 is zero and a zero right-hand side there
  // meets pivot 150 as an exact-zero coefficient amid nonzero neighbours.
  Rng rng(21);
  constexpr std::size_t kZeroRow = 150;
  BandedLuMatrix ragged = random_dominant_band(301, 26, 19, 0.7, rng);
  for (std::size_t j = kZeroRow - 26; j < kZeroRow; ++j) ragged.at(kZeroRow, j) = 0.0;
  ragged.factorize();
  const auto random_block = [&](std::size_t n, std::size_t k, double lo, double hi) {
    std::vector<double> b(n * k);
    for (double& v : b) v = rng.uniform(lo, hi);
    return b;
  };
  for (std::size_t k = 1; k <= 9; ++k) {
    SCOPED_TRACE(::testing::Message() << "k=" << k);
    std::vector<double> b = random_block(ragged.size(), k, -1.0, 1.0);
    const std::size_t n = ragged.size();
    // Column 1 starts with a run of zeros (the ROM build's influence
    // columns do), column 2 has the exact-zero interior coefficient.
    if (k >= 2) std::fill_n(b.begin() + static_cast<std::ptrdiff_t>(n), 200, 0.0);
    if (k >= 3) b[2 * n + kZeroRow] = 0.0;
    expect_many_match_single(ragged, b);
  }

  // The real operators: the 2-layer paper-grid stack's fluid-eliminated
  // operator for a step (1/dt = 20) and the steady state (1/dt = 0), and
  // the air stack's C/dt + G through its model's LU slot.
  ThermalModel3D liquid(make_niagara_stack(1, CoolingType::kLiquid), ThermalModelParams{});
  liquid.set_cavity_flow(VolumetricFlow::from_ml_per_min(40.0));
  const std::size_t bw = liquid.grid().cols() * liquid.layer_count();
  for (const double inv_dt : {20.0, 0.0}) {
    SCOPED_TRACE(::testing::Message() << "liquid inv_dt=" << inv_dt);
    BandedLuMatrix a(liquid.node_count(), bw, bw);
    std::vector<double> inlet;
    ThermalModel3DTestAccess::build_eliminated_system(liquid, inv_dt, a, inlet);
    a.factorize();
    for (const std::size_t k : {2u, 4u, 5u}) {
      expect_many_match_single(a, random_block(a.size(), k, 40.0, 90.0));
    }
  }
  ThermalModel3D air(make_niagara_stack(1, CoolingType::kAir), ThermalModelParams{});
  air.step(0.05);
  const BandedLuMatrix* air_lu = ThermalModel3DTestAccess::lu_slot(air);
  ASSERT_NE(air_lu, nullptr);
  ASSERT_TRUE(air_lu->factorized());
  for (const std::size_t k : {3u, 4u, 7u}) {
    SCOPED_TRACE("air");
    expect_many_match_single(*air_lu, random_block(air_lu->size(), k, 40.0, 90.0));
  }
}

// -- Air step through the LU slot ---------------------------------------------

/// Largest per-node disagreement [K] allowed between an air step solved
/// through the banded-LU slot and a dense Gaussian solve of the same
/// backward-Euler system.  Both are backward-stable solves of a strictly
/// diagonally dominant system with temperatures near 50 °C, so they agree
/// to a few ulps of the field (~1e-13 K); the bound leaves four orders of
/// magnitude of headroom and still catches any assembly or key error.
constexpr double kAirLuToleranceK = 1e-9;

TEST(AirStep, MatchesDenseReferenceWithinNamedTolerance) {
  // Each step of a small air stack against (C/dt + G) T = C/dt T_prev + P +
  // g_pkg T_spr solved densely.  G and the package coupling come from the
  // exported steady operator (its silicon block is G, its spreader column
  // is -g_pkg), P from its block-input shares, C/dt from the capacitances.
  // The step size changes halfway, so the slot is also checked after it
  // is reassembled in place for a new key.
  ThermalModelParams p;
  p.grid_rows = 6;
  p.grid_cols = 7;
  ThermalModel3D model(make_niagara_stack(1, CoolingType::kAir), p);
  const std::size_t n = model.node_count();
  SteadyOperator op;
  model.export_steady_operator(op);
  ASSERT_EQ(op.nodes, n + 2);
  const std::vector<double>& cap = ThermalModel3DTestAccess::capacitance(model);

  const Floorplan& fp = model.stack().layer(0).floorplan;
  std::vector<double> watts(fp.block_count(), 0.5);
  model.initialize(45.0);
  ThermalState state;
  double worst = 0.0;
  for (int step = 0; step < 20; ++step) {
    const double dt = step < 10 ? 0.05 : 0.1;
    // A power change mid-run moves the field instead of letting it settle.
    for (std::size_t b = 0; b < fp.block_count(); ++b) {
      if (fp.block(b).type == BlockType::kCore) watts[b] = step < 10 ? 3.0 : 1.0;
    }
    model.set_block_power(0, watts);
    model.save_state(state);
    Matrix a(n, n);
    std::vector<double> rhs(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      a(i, i) += cap[i] / dt;
      rhs[i] += cap[i] / dt * state.temps[i];
      for (std::size_t k = op.row_ptr[i]; k < op.row_ptr[i + 1]; ++k) {
        if (op.col[k] < n) {
          a(i, op.col[k]) += op.val[k];
        } else if (op.col[k] == n) {  // the spreader
          rhs[i] -= op.val[k] * state.spreader_temp;
        }
      }
    }
    for (std::size_t b = 0; b < fp.block_count(); ++b) {
      for (const SteadyOperator::InputShare& share : op.block_inputs[0][b]) {
        rhs[share.node] += watts[b] * share.weight;
      }
    }
    const std::vector<double> expected = solve_linear(a, rhs);
    model.step(dt);
    model.save_state(state);
    for (std::size_t i = 0; i < n; ++i) {
      worst = std::max(worst, std::abs(state.temps[i] - expected[i]));
    }
  }
  EXPECT_LE(worst, kAirLuToleranceK);
  EXPECT_GT(model.max_temperature(), 45.5);  // the steps moved the field
}

// -- Air steady state: the implicit step at 1/dt = 0 ------------------------

TEST(AirSteady, MatchesDenseReference) {
  // The air steady state sets the spreader and sink in closed form (all the
  // power crosses the package in series) and solves the silicon once.  The
  // reference solves the whole exported operator, package unknowns
  // included, densely: A x = p + ref_coef T_amb.
  for (const std::size_t pairs : {1u, 2u}) {
    SCOPED_TRACE(testing::Message() << 2 * pairs << " layers");
    ThermalModelParams p;
    p.grid_rows = 6;
    p.grid_cols = 7;
    ThermalModel3D model(make_niagara_stack(pairs, CoolingType::kAir), p);
    for (std::size_t l = 0; l < model.layer_count(); ++l) {
      const Floorplan& fp = model.stack().layer(l).floorplan;
      std::vector<double> watts(fp.block_count(), 0.3);
      for (std::size_t b = 0; b < fp.block_count(); ++b) {
        if (fp.block(b).type == BlockType::kCore) watts[b] = 3.0;
      }
      model.set_block_power(l, watts);
    }
    model.initialize(45.0);
    model.solve_steady_state();

    SteadyOperator op;
    model.export_steady_operator(op);
    const std::size_t n = op.nodes;
    ASSERT_EQ(n, model.node_count() + 2);
    Matrix a(n, n);
    std::vector<double> rhs(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = op.row_ptr[i]; k < op.row_ptr[i + 1]; ++k) {
        a(i, op.col[k]) += op.val[k];
      }
      rhs[i] = op.ref_coef[i] * op.t_ref;
    }
    for (std::size_t l = 0; l < model.layer_count(); ++l) {
      const Floorplan& fp = model.stack().layer(l).floorplan;
      for (std::size_t b = 0; b < fp.block_count(); ++b) {
        const double w = fp.block(b).type == BlockType::kCore ? 3.0 : 0.3;
        for (const SteadyOperator::InputShare& share : op.block_inputs[l][b]) {
          rhs[share.node] += w * share.weight;
        }
      }
    }
    const std::vector<double> expected = solve_linear(a, rhs);

    ThermalState state;
    model.save_state(state);
    double worst = 0.0;
    for (std::size_t i = 0; i < model.node_count(); ++i) {
      worst = std::max(worst, std::abs(state.temps[i] - expected[i]));
    }
    EXPECT_LE(worst, kAirLuToleranceK);
    EXPECT_GT(model.max_temperature(), 50.0);  // the power moved the field

    const double p_total = model.total_power();
    const double sink = p.ambient_temperature + p_total * p.sink_to_ambient_resistance;
    const double spreader = sink + p_total * p.spreader_to_sink_resistance;
    EXPECT_EQ(state.sink_temp, sink);
    EXPECT_EQ(state.spreader_temp, spreader);
    EXPECT_NEAR(state.spreader_temp, expected[n - 2], kAirLuToleranceK);
    EXPECT_NEAR(state.sink_temp, expected[n - 1], kAirLuToleranceK);
  }
}

// -- Direct steady solver (fluid elimination) ---------------------------------

TEST(DirectSteady, ReusesFactorizationPerFlowSetting) {
  ThermalModelParams p;
  p.grid_rows = 6;
  p.grid_cols = 7;
  ThermalModel3D m(make_niagara_stack(1, CoolingType::kLiquid), p);
  const Floorplan& fp = m.stack().layer(0).floorplan;
  std::vector<double> watts(fp.block_count(), 1.5);
  m.set_block_power(0, watts);
  m.set_cavity_flow(VolumetricFlow::from_ml_per_min(12.0));
  m.solve_steady_state();
  const double t1 = m.max_temperature();
  m.solve_steady_state();  // same flow: cached factorization, same answer
  EXPECT_DOUBLE_EQ(m.max_temperature(), t1);
  m.set_cavity_flow(VolumetricFlow::from_ml_per_min(30.0));
  m.solve_steady_state();  // higher flow must cool the stack
  EXPECT_LT(m.max_temperature(), t1);
}

// -- The fluid-eliminated step against a dense oracle -------------------------

/// Largest per-node disagreement [K] allowed between the eliminated LU step
/// and the dense oracle (reference::DenseLu on the reference assembly).
/// Both solve one 220-node system whose field reaches 60-280 °C, and agree
/// to at most 4.3e-13 K (the throttled steady state; 5e-14 K at 10
/// ml/min); a factor that lost accuracy where the rows are not dominant, a
/// wrong coolant coefficient or a stale key moves the field by millikelvins
/// or more.
constexpr double kOracleToleranceK = 1e-9;

/// Largest per-node move [K] one more silicon solve against the marched
/// coolant may make after an eliminated step: both are exact solves of
/// the same equations, so the field must stay put to rounding.
constexpr double kFixedPointToleranceK = 1e-9;

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

/// Valve-throttled cavities: 2%, 10% and 30% of the lowest Laing DDC
/// setting's per-cavity flow.  Here the fluid-eliminated rows are not
/// diagonally dominant (smallest |a_ii| / sum |a_ij| on the 10 x 11 grid:
/// 0.82 at dt = 0.05 s, 0.72 at steady state), the regime the unpivoted LU
/// has no a-priori stability guarantee for.
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

/// 2-layer liquid model on a 10 x 11 grid (220 nodes) with powered cores.
ThermalModel3D make_2layer_model() {
  ThermalModelParams p;
  p.grid_rows = 10;
  p.grid_cols = 11;
  ThermalModel3D m(make_2layer_system(), p);
  set_core_power(m, 3.0);
  return m;
}

/// The eliminated step of `model`'s operator at 1/dt = inv_dt and its
/// current flow, powers and inlet temperature, solved by the dense oracle.
class OracleStep {
 public:
  OracleStep(const ThermalModel3D& model, double inv_dt)
      : inv_dt_(inv_dt),
        lu_(ThermalModel3DTestAccess::reference_eliminated_dense(model, inv_dt,
                                                                 inlet_coef_)) {}

  /// The field one step after `t_prev`.
  [[nodiscard]] std::vector<double> operator()(const ThermalModel3D& model,
                                               const std::vector<double>& t_prev) const {
    return lu_.solve(
        ThermalModel3DTestAccess::eliminated_rhs(model, inv_dt_, t_prev, inlet_coef_));
  }

 private:
  double inv_dt_;
  std::vector<double> inlet_coef_;
  reference::DenseLu lu_;
};

/// The model's field and coolant outlets agree with the oracle's field.
void expect_matches_oracle(const ThermalModel3D& model, const std::vector<double>& oracle) {
  double worst = 0.0;
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    worst = std::max(worst, std::abs(model.temperatures()[i] - oracle[i]));
  }
  EXPECT_LE(worst, kOracleToleranceK);
  for (std::size_t k = 0; k < model.stack().cavity_count(); ++k) {
    EXPECT_NEAR(model.fluid_outlet_temperature(k),
                ThermalModel3DTestAccess::outlet_over(model, k, oracle),
                kOracleToleranceK)
        << "cavity " << k;
  }
}

TEST(EliminatedStep, IsAFixedPointOfTheSiliconFluidAlternation) {
  // After one eliminated step, one more silicon solve against the marched
  // fluid — the body of the silicon<->fluid fixed point the model once
  // iterated, kept as a test oracle — must not move any node.
  ThermalModel3D model = make_2layer_model();
  model.set_cavity_flow(VolumetricFlow::from_ml_per_min(12.0));
  model.initialize(45.0);
  for (int i = 0; i < 5; ++i) model.step(0.05);
  ThermalState before;
  model.save_state(before);
  model.step(0.05);
  ThermalState after;
  model.save_state(after);

  const std::vector<double> again =
      ThermalModel3DTestAccess::silicon_solve_against_fluid(
          model, 1.0 / 0.05, before.temps, after.fluid_temp);
  for (std::size_t i = 0; i < model.node_count(); ++i) {
    ASSERT_NEAR(again[i], after.temps[i], kFixedPointToleranceK) << "node " << i;
  }
}

TEST(EliminatedStep, MatchesADenseOracleAcrossAPumpChange) {
  ThermalModel3D model = make_2layer_model();
  model.set_cavity_flow(VolumetricFlow::from_ml_per_min(10.0));
  model.initialize(45.0);
  std::vector<double> oracle(model.node_count(), 45.0);
  std::optional<OracleStep> step(std::in_place, model, 1.0 / 0.05);
  const obs::ScopedEnabled obs_on(true);
  const std::uint64_t factorizations = factorization_count();
  for (int i = 0; i < 40; ++i) {
    if (i == 20) {  // a pump-setting change mid-run
      model.set_cavity_flow(VolumetricFlow::from_ml_per_min(25.0));
      step.emplace(model, 1.0 / 0.05);
    }
    model.step(0.05);
    oracle = (*step)(model, oracle);
  }
  EXPECT_EQ(factorization_count() - factorizations, 2u);
  expect_matches_oracle(model, oracle);
}

TEST(EliminatedStep, MatchesADenseOracleAtThrottledFlows) {
  ThermalModel3D model = make_2layer_model();
  ASSERT_EQ(model.stack().cavity_count(), 3u);
  model.set_cavity_flow(throttled_flows());
  model.initialize(45.0);
  std::vector<double> oracle(model.node_count(), 45.0);
  const OracleStep step(model, 1.0 / 0.05);
  for (int i = 0; i < 40; ++i) {
    model.step(0.05);
    oracle = step(model, oracle);
  }
  expect_matches_oracle(model, oracle);
}

TEST(EliminatedStep, SteadySolveMatchesADenseOracleAtThrottledFlows) {
  // The steady state is one LU solve at 1/dt = 0, the least dominant form
  // of the operator.
  ThermalModel3D model = make_2layer_model();
  model.set_cavity_flow(throttled_flows());
  model.initialize(45.0);
  model.solve_steady_state();
  EXPECT_GT(model.max_temperature(), 60.0);  // a genuinely throttled point
  const std::vector<double> oracle =
      OracleStep(model, 0.0)(model, std::vector<double>(model.node_count(), 0.0));
  expect_matches_oracle(model, oracle);
}

// -- Factorization cache -----------------------------------------------------

TEST(FactorizationCache, ModelReusesEliminatedSlotPerDtAndFlow) {
  // A liquid model keeps one fluid-eliminated LU slot: equal (dt, flow)
  // reuses it, and a new flow, dt or the steady solve (1/dt = 0)
  // refactorizes the same storage in place.
  const obs::ScopedEnabled obs_on(true);
  ThermalModelParams p;
  p.grid_rows = 6;
  p.grid_cols = 7;
  ThermalModel3D model(make_niagara_stack(1, CoolingType::kLiquid), p);
  model.set_cavity_flow(VolumetricFlow::from_ml_per_min(20.0));
  model.initialize(45.0);
  EXPECT_EQ(ThermalModel3DTestAccess::lu_slot(model), nullptr);
  const std::uint64_t base = factorization_count();
  model.step(0.05);
  const BandedLuMatrix* slot = ThermalModel3DTestAccess::lu_slot(model);
  ASSERT_NE(slot, nullptr);
  model.step(0.05);
  model.step(0.05);
  EXPECT_EQ(factorization_count() - base, 1u);

  model.set_cavity_flow(VolumetricFlow::from_ml_per_min(30.0));
  model.step(0.05);
  model.step(0.05);
  EXPECT_EQ(factorization_count() - base, 2u);
  model.step(0.1);
  EXPECT_EQ(factorization_count() - base, 3u);
  model.solve_steady_state();
  model.solve_steady_state();
  EXPECT_EQ(factorization_count() - base, 4u);
  EXPECT_EQ(ThermalModel3DTestAccess::lu_slot(model), slot);
}

TEST(FactorizationCache, AirModelReusesItsLuSlotPerDt) {
  // An air model keys its one LU slot by 1/dt alone: repeated steps reuse
  // it, a new dt refactorizes the same storage, and the steady state is
  // one more factorization, at 1/dt = 0.
  const obs::ScopedEnabled obs_on(true);
  ThermalModelParams p;
  p.grid_rows = 6;
  p.grid_cols = 7;
  ThermalModel3D model(make_niagara_stack(1, CoolingType::kAir), p);
  model.set_block_power(0, std::vector<double>(
                               model.stack().layer(0).floorplan.block_count(), 1.0));
  model.initialize(45.0);
  const std::uint64_t base = factorization_count();
  model.step(0.05);
  const BandedLuMatrix* slot = ThermalModel3DTestAccess::lu_slot(model);
  ASSERT_NE(slot, nullptr);
  model.step(0.05);
  model.step(0.05);
  EXPECT_EQ(factorization_count() - base, 1u);
  model.step(0.1);
  model.step(0.1);
  EXPECT_EQ(factorization_count() - base, 2u);
  model.solve_steady_state();
  EXPECT_EQ(factorization_count() - base, 3u);
  EXPECT_EQ(ThermalModel3DTestAccess::lu_slot(model), slot);
}

TEST(FactorizationCache, LentCacheServesAnEqualFlowFactor) {
  // Models lent one FactorCache solve through a factor another built at
  // the same (fingerprint, dt, flow vector) instead of refactorizing, and
  // answer exactly as alone; a model whose topology differs finds none.
  const obs::ScopedEnabled obs_on(true);
  ThermalModelParams p;
  p.grid_rows = 6;
  p.grid_cols = 7;
  const auto make = [](const ThermalModelParams& params) {
    ThermalModel3D m(make_niagara_stack(1, CoolingType::kLiquid), params);
    m.set_cavity_flow(VolumetricFlow::from_ml_per_min(20.0));
    m.initialize(45.0);
    return m;
  };
  ThermalModel3D solo = make(p);  // b's twin on its own slot
  ThermalModel3D a = make(p);
  ThermalModel3D b = make(p);
  FactorCache cache(2, 2);
  a.use_factor_cache(&cache);
  b.use_factor_cache(&cache);
  obs::Counter& hits =
      obs::Registry::global().counter("liquid3d_solver_factor_cache_hits_total");
  const std::uint64_t base = factorization_count();
  const std::uint64_t hits_base = hits.value();
  for (ThermalModel3D* m : {&solo, &a, &b}) m->step(0.05);
  EXPECT_EQ(factorization_count() - base, 2u);  // solo's and a's
  EXPECT_EQ(hits.value() - hits_base, 1u);
  EXPECT_EQ(ThermalModel3DTestAccess::lu_slot(b), nullptr);

  // Diverging flows: b factorizes into the cache's free slot; back at a's
  // flow it finds a's factor again.
  for (ThermalModel3D* m : {&solo, &b}) {
    m->set_cavity_flow(VolumetricFlow::from_ml_per_min(30.0));
    m->step(0.05);
  }
  EXPECT_EQ(factorization_count() - base, 4u);
  for (ThermalModel3D* m : {&solo, &b}) {
    m->set_cavity_flow(VolumetricFlow::from_ml_per_min(20.0));
  }
  for (ThermalModel3D* m : {&solo, &a, &b}) m->step(0.05);
  EXPECT_EQ(factorization_count() - base, 5u);  // solo's; a and b hit
  EXPECT_EQ(hits.value() - hits_base, 3u);
  for (std::size_t l = 0; l < solo.layer_count(); ++l) {
    for (std::size_t c = 0; c < solo.grid().cell_count(); ++c) {
      EXPECT_EQ(b.cell_temperature(l, c), solo.cell_temperature(l, c));
    }
  }
  ThermalModelParams other = p;
  other.alternate_flow_direction = true;
  ThermalModel3D mismatched = make(other);
  mismatched.use_factor_cache(&cache);
  mismatched.step(0.05);
  EXPECT_EQ(factorization_count() - base, 6u);
  EXPECT_EQ(hits.value() - hits_base, 3u);
}

// -- No-allocation hot loop --------------------------------------------------

TEST(HotLoop, StepDoesNotAllocateAfterWarmup) {
  for (const CoolingType cooling : {CoolingType::kLiquid, CoolingType::kAir}) {
    SCOPED_TRACE(cooling == CoolingType::kLiquid ? "liquid" : "air");
    ThermalModelParams p;
    p.grid_rows = 10;
    p.grid_cols = 11;
    ThermalModel3D model(make_niagara_stack(1, cooling), p);
    if (cooling == CoolingType::kLiquid) {
      model.set_cavity_flow(VolumetricFlow::from_ml_per_min(20.0));
    }
    const Floorplan& fp = model.stack().layer(0).floorplan;
    std::vector<double> watts(fp.block_count(), 0.0);
    for (std::size_t b = 0; b < fp.block_count(); ++b) {
      if (fp.block(b).type == BlockType::kCore) watts[b] = 3.0;
    }
    model.set_block_power(0, watts);
    model.initialize(45.0);

    // Warm-up: first step of each dt assembles + factorizes (allocates), and
    // scratch buffers reach their steady capacity.
    model.step(0.05);
    model.step(0.05);

    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 1000; ++i) {
      model.step(0.05);
      (void)model.max_temperature();
      (void)model.block_temperature(0, 0);
      (void)model.block_mean_temperature(0, 0);
      // The coolant readback runs the pending march: no allocation either.
      if (cooling == CoolingType::kLiquid) (void)model.fluid_outlet_temperature(0);
    }
    const std::size_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before) << "hot loop performed " << (after - before)
                             << " heap allocations over 1000 steps";
  }
}

TEST(HotLoop, FlowSwitchingStepDoesNotAllocateAfterWarmup) {
  // A pump-setting change on every step forces the liquid model's full
  // refresh each time — fluid-eliminated reassembly, refactorization and
  // a solve — all on storage sized by the first build.
  ThermalModelParams p;
  p.grid_rows = 10;
  p.grid_cols = 11;
  ThermalModel3D model(make_niagara_stack(1, CoolingType::kLiquid), p);
  const Floorplan& fp = model.stack().layer(0).floorplan;
  std::vector<double> watts(fp.block_count(), 0.0);
  for (std::size_t b = 0; b < fp.block_count(); ++b) {
    if (fp.block(b).type == BlockType::kCore) watts[b] = 3.0;
  }
  model.set_block_power(0, watts);
  const VolumetricFlow flows[] = {VolumetricFlow::from_ml_per_min(12.0),
                                  VolumetricFlow::from_ml_per_min(30.0)};
  model.set_cavity_flow(flows[0]);
  model.initialize(45.0);
  const obs::ScopedEnabled obs_on(true);
  for (int i = 0; i < 4; ++i) {
    model.set_cavity_flow(flows[i % 2]);
    model.step(0.05);
  }

  const std::uint64_t factorizations = factorization_count();
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 200; ++i) {
    model.set_cavity_flow(flows[i % 2]);
    model.step(0.05);
    (void)model.max_temperature();
    (void)model.fluid_outlet_temperature(0);
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(factorization_count() - factorizations, 200u);
  EXPECT_EQ(after, before) << "flow-switching loop performed " << (after - before)
                           << " heap allocations over 200 refreshes";
}

}  // namespace
}  // namespace liquid3d
