// pcg.hpp — preconditioned conjugate gradient solver over SparseMatrix.
//
// The iterative counterpart of BandedLuMatrix for the backward-Euler
// thermal systems: the operator is SPD (capacitance/dt plus a conduction
// M-matrix), so CG converges unconditionally, and each iteration costs
// O(nnz) ≈ O(7n) instead of the banded back-substitution's O(n b).  At the
// paper's native 100 µm grid (b in the thousands) that — plus skipping the
// O(n b^2) factorization entirely — is the whole ballgame.
//
// Preconditioners (all SPD-preserving):
//   * kJacobi             — diagonal scaling; cheapest apply, most iterations.
//   * kSsor               — symmetric SOR sweep (ω=1 ⇒ symmetric
//                           Gauss-Seidel); no setup beyond the matrix itself.
//   * kIncompleteCholesky — IC(0), zero fill-in.  The thermal operators are
//                           diagonally dominant M-matrices, for which IC(0)
//                           provably does not break down (Meijerink & van
//                           der Vorst); it is the default and the iteration
//                           count winner.
//
// Warm starts: solve() takes the initial guess in x.  Backward-Euler steps
// and fluid fixed-point iterations change the solution by a fraction of a
// kelvin, so seeding from the previous temperature field cuts iterations by
// several-fold versus a cold start — the iterative analogue of the direct
// path reusing one factorization across steps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "thermal/solver/sparse_matrix.hpp"

namespace liquid3d {

enum class PcgPreconditioner { kJacobi, kSsor, kIncompleteCholesky };

[[nodiscard]] const char* to_string(PcgPreconditioner p);
[[nodiscard]] PcgPreconditioner pcg_preconditioner_from_name(std::string_view s);

struct PcgParams {
  /// Convergence target on the relative residual ‖b - A x‖ / ‖b‖.  The
  /// default sits two decades under the 1e-8 agreement contract with the
  /// direct solver, at a cost of a couple of extra iterations.
  double tolerance = 1e-10;
  std::size_t max_iterations = 1000;
  PcgPreconditioner preconditioner = PcgPreconditioner::kIncompleteCholesky;
  /// SSOR relaxation factor in (0, 2); 1.0 = symmetric Gauss-Seidel.
  double ssor_omega = 1.0;
};

/// Outcome of one solve() call.
struct PcgSummary {
  std::size_t iterations = 0;
  /// Recurrence-residual estimate of ‖b - A x‖ / ‖b‖ at exit.
  double relative_residual = 0.0;
  bool converged = false;
};

/// One assembled system: the CSR operator plus its preconditioner, ready to
/// solve any number of right-hand sides.  Owns the matrix; the model's
/// dt-keyed cache (DtKeyedLruCache) stores PcgSolver instances.
class PcgSolver {
 public:
  /// Takes the finalized matrix and builds the configured preconditioner.
  PcgSolver(SparseMatrix matrix, PcgParams params);

  [[nodiscard]] const SparseMatrix& matrix() const { return a_; }
  [[nodiscard]] const PcgParams& params() const { return params_; }

  /// Solve A x = b.  On entry x holds the initial guess (warm start); on
  /// exit the solution.  Throws LogicError if the operator is detected
  /// non-SPD mid-iteration.  Allocation-free after the first call.
  PcgSummary solve(const double* b, double* x);

  /// Last solve's outcome.
  [[nodiscard]] const PcgSummary& last() const { return last_; }
  /// Iterations accumulated over every solve (hot-loop telemetry).
  [[nodiscard]] std::uint64_t total_iterations() const { return total_iterations_; }
  [[nodiscard]] std::uint64_t solves() const { return solves_; }

 private:
  void build_jacobi();
  void build_ic0();
  void apply_preconditioner(const double* r, double* z) const;

  SparseMatrix a_;
  PcgParams params_;

  // Preconditioner data.
  std::vector<double> inv_diag_;      ///< Jacobi (and SSOR diagonal scaling)
  std::vector<std::size_t> lrow_ptr_; ///< IC(0) factor, lower CSR (diag last)
  std::vector<std::uint32_t> lcol_;
  std::vector<double> lval_;

  // Persistent solve scratch.
  std::vector<double> r_, z_, p_, q_;

  PcgSummary last_{};
  std::uint64_t total_iterations_ = 0;
  std::uint64_t solves_ = 0;
};

}  // namespace liquid3d
