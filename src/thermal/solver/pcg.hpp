// pcg.hpp — IC(0)-preconditioned Krylov solves over SparseMatrix.
//
// The iterative counterpart of BandedLuMatrix for the backward-Euler
// thermal systems.  Each iteration costs O(nnz) ≈ O(7n) instead of the
// banded back-substitution's O(n b), and there is no O(n b^2)
// factorization.  That pays only on bands far wider than the paper's own
// 100 µm grid makes (100 x 115 cells, b = 230 on 2 layers and 460 on 4,
// where the direct step is the faster one); the 200 x 500 demonstration
// grid (b = 1000) is such a band.
//
// One loop for every operator: right-preconditioned BiCGSTAB (van der
// Vorst 1992) on (A - K) x = b.  A is the SPD CSR matrix (capacitance/dt
// plus a conduction M-matrix); K is an optional non-symmetric term applied
// matrix-free (a liquid stack's coolant, whose march couples each wall to
// the cells upstream of it).  The fluid-eliminated operator is never
// formed, so an apply stays O(n) where its explicit upstream couplings
// would hold ~cols entries a row.  An air stack passes no K and the same
// loop solves its symmetric system.  The preconditioner is the IC(0) of A:
// zero fill-in, and for the diagonally dominant M-matrices the model
// assembles it provably does not break down (Meijerink & van der Vorst).
//
// Warm starts: solve() takes the initial guess in x.  Backward-Euler steps
// change the solution by a fraction of a kelvin, so seeding from the
// previous temperature field cuts iterations several-fold versus a cold
// start — the iterative analogue of the direct path reusing one
// factorization across steps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "thermal/solver/sparse_matrix.hpp"

namespace liquid3d {

struct PcgParams {
  /// Convergence target on the relative residual ‖b - A x‖ / ‖b‖.  The
  /// default sits two decades under the 1e-8 agreement contract with the
  /// direct solver, at a cost of a couple of extra iterations.
  double tolerance = 1e-10;
  std::size_t max_iterations = 1000;
};

/// Outcome of one solve() call.
struct PcgSummary {
  std::size_t iterations = 0;
  /// Recurrence-residual estimate of ‖b - A x‖ / ‖b‖ at exit.
  double relative_residual = 0.0;
  bool converged = false;
};

/// y -= K v: the non-symmetric term a solve subtracts from the CSR operator,
/// applied matrix-free.
using OperatorTerm = std::function<void(const double* v, double* y)>;

/// One assembled system: the CSR operator plus its IC(0), ready to solve
/// any number of right-hand sides.  Owns the matrix; a model keeps one, for
/// the 1/dt it last solved at.
class PcgSolver {
 public:
  /// Takes the finalized matrix and builds its IC(0).
  PcgSolver(SparseMatrix matrix, PcgParams params);

  [[nodiscard]] const SparseMatrix& matrix() const { return a_; }
  [[nodiscard]] const PcgParams& params() const { return params_; }

  /// Solve (A - K) x = b by BiCGSTAB, with K = 0 when `minus_k` is empty.
  /// On entry x holds the initial guess (warm start); on exit the solution.
  /// A breakdown (a vanishing inner product) throws SolverError; hitting
  /// the iteration cap returns converged = false.  Allocation-free after
  /// construction.
  PcgSummary solve(const double* b, double* x, const OperatorTerm& minus_k = {});

  /// Last solve's outcome.
  [[nodiscard]] const PcgSummary& last() const { return last_; }
  [[nodiscard]] std::uint64_t solves() const { return solves_; }

 private:
  void build_ic0();
  void apply_preconditioner(const double* r, double* z) const;

  SparseMatrix a_;
  PcgParams params_;

  // IC(0) factor, lower CSR with the diagonal last in each row.
  std::vector<std::size_t> lrow_ptr_;
  std::vector<std::uint32_t> lcol_;
  std::vector<double> lval_;

  // Persistent solve scratch.
  std::vector<double> r_, z_, p_, q_, r_hat_, t_;

  PcgSummary last_{};
  std::uint64_t solves_ = 0;
};

}  // namespace liquid3d
