// banded_lu.hpp — general (non-symmetric) banded LU direct solver: the
// one kernel behind every ThermalModel3D solve.
//
// Liquid stacks.  The coolant march is linear in the wall temperatures, and
// eliminating the fluid couples each silicon cell only to cells upstream in
// the same channel row — a distance of at most (cols-1)*layers + 1 node
// indices, i.e. within the thermal matrix's existing half-bandwidth.  The
// eliminated system is non-symmetric (advection is directional: upstream
// heats downstream, not vice versa), so it needs LU rather than Cholesky.
//
// Air stacks.  Their backward-Euler operator C/dt + G is the symmetric
// conduction network, stamped through add_diagonal/add_coupling into a band
// with bl = bu.  Storing both triangles costs twice the memory of a
// symmetric factor; in exchange one kernel family serves both coolings.
//
// Factorization is unpivoted.  Unpivoted LU is guaranteed stable on
// strictly diagonally dominant rows (the growth factor is at most 2).
// The air operator always has them: every coupling adds g to both
// diagonals and -g off the diagonal, so each row of C/dt + G sums to
// C_i/dt + ext_i > 0 for every finite dt.  The eliminated liquid operator
// does not always have them: its steady rows lose dominance once
// g_sum / w_row > 2 (the lowest pump setting), and valve-throttled cavities
// lose it even with the C/dt term of a transient step.  There the factor is
// backed by measurement only (tests pin those answers against a dense
// partially pivoted LU of the same operator).  A pivot that vanishes or is non-finite is a numerical outcome of
// the operating point, not a bug: factorize() throws SolverError, which the
// sweep's quarantine ladder records as data.
//
// Kernels.  The factorization is panel-blocked right-looking LU: per panel
// of pivots, each column the panel reaches is visited once — its rows
// inside the panel finalized pivot by pivot, everything below updated by
// the whole panel in one fused pass, several trailing columns at a time
// sharing each load of the panel's L.  The triangular solves are blocked
// the same way: a few unknowns are finalized, then one fused sweep covers
// the rows all of them reach; a leading run of zeros in the right-hand side
// costs no elimination work.  Several right-hand sides go through one sweep
// together, sharing each load of the factor; each keeps its own zero skips.
// Each matrix and vector element receives the same updates in the same
// order as in the unblocked kernels, so the factor and every solution are
// bit-identical to theirs, whatever the number of right-hand sides.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace liquid3d {

/// Column-major band storage: element (i, j) with j - bu <= i <= j + bl
/// lives at band_[j * (bl + bu + 1) + (i - j + bu)] — each column is a
/// contiguous run, upper band first.
class BandedLuMatrix {
 public:
  BandedLuMatrix(std::size_t n, std::size_t lower_bandwidth,
                 std::size_t upper_bandwidth);

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] std::size_t lower_bandwidth() const { return bl_; }
  [[nodiscard]] std::size_t upper_bandwidth() const { return bu_; }

  /// Access A(i, j); |i - j| must be within the respective bandwidth.
  [[nodiscard]] double& at(std::size_t i, std::size_t j);
  [[nodiscard]] double at(std::size_t i, std::size_t j) const;
  /// Accumulate v into A(i, j).
  void add(std::size_t i, std::size_t j, double v) { at(i, j) += v; }
  /// The conduction stamps the air operator is assembled from: g on the
  /// diagonal of node i.
  void add_diagonal(std::size_t i, double g) { at(i, i) += g; }
  /// Conductance g between distinct nodes i and j: +g on both diagonals,
  /// -g on both off-diagonals.
  void add_coupling(std::size_t i, std::size_t j, double g);

  /// The band itself, n * (bl + bu + 1) values in the layout above: for
  /// assembly loops that write entries directly (unchecked) and for
  /// bitwise comparisons of factors.
  [[nodiscard]] std::span<double> band() { return band_; }
  [[nodiscard]] std::span<const double> band() const { return band_; }

  void set_zero();

  /// In-place unpivoted LU (Doolittle: unit lower L).  Throws SolverError
  /// (backend "direct", iterations = the failing pivot's index, residual =
  /// its magnitude) on a vanishing or non-finite pivot.
  void factorize();
  [[nodiscard]] bool factorized() const { return factorized_; }

  /// Solve A X = B in place for k right-hand sides: `rhs` is the n x k
  /// column block B (column j at rhs[j * n]), so rhs.size() must be a
  /// positive multiple of n.  Each column's solution is bit-identical to
  /// solving it alone.
  void solve(std::span<double> rhs) const;

 private:
  std::size_t n_;
  std::size_t bl_;
  std::size_t bu_;
  std::size_t w_;  ///< column stride = bl_ + bu_ + 1
  std::vector<double> band_;
  bool factorized_ = false;
};

}  // namespace liquid3d
