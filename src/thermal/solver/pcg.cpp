#include "thermal/solver/pcg.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "obs/metrics.hpp"

namespace liquid3d {

namespace {

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

}  // namespace

PcgSolver::PcgSolver(SparseMatrix matrix, PcgParams params)
    : a_(std::move(matrix)), params_(params) {
  LIQUID3D_REQUIRE(a_.finalized(), "PcgSolver needs a finalized matrix");
  LIQUID3D_REQUIRE(params_.tolerance > 0.0, "tolerance must be positive");
  LIQUID3D_REQUIRE(params_.max_iterations >= 1, "need at least one iteration");
  const std::size_t n = a_.size();
  for (std::vector<double>* v : {&r_, &z_, &p_, &q_, &r_hat_, &t_}) {
    v->assign(n, 0.0);
  }
  build_ic0();
}

void PcgSolver::build_ic0() {
  // IC(0): Cholesky restricted to the sparsity of lower(A).  Stored as a
  // lower CSR whose rows end with the diagonal; with ~3 sub-diagonal
  // entries per row the row-intersection inner loop is effectively O(1).
  const std::size_t n = a_.size();
  const auto& rp = a_.row_ptr();
  const auto& ci = a_.col();
  const auto& av = a_.val();

  lrow_ptr_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    lrow_ptr_[i + 1] = lrow_ptr_[i] + (a_.diag_index(i) - rp[i] + 1);
  }
  lcol_.resize(lrow_ptr_[n]);
  lval_.resize(lrow_ptr_[n]);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t out = lrow_ptr_[i];
    for (std::size_t p = rp[i]; p <= a_.diag_index(i); ++p, ++out) {
      lcol_[out] = ci[p];
      lval_[out] = av[p];
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t row_lo = lrow_ptr_[i];
    const std::size_t row_diag = lrow_ptr_[i + 1] - 1;  // diag last (sorted)
    for (std::size_t p = row_lo; p < row_diag; ++p) {
      const std::size_t k = lcol_[p];
      const std::size_t k_lo = lrow_ptr_[k];
      const std::size_t k_diag = lrow_ptr_[k + 1] - 1;
      double s = lval_[p];
      // s -= Σ_j L(i,j) L(k,j) over the shared sparsity j < k.
      std::size_t pi = row_lo;
      std::size_t pk = k_lo;
      while (pi < p && pk < k_diag) {
        if (lcol_[pi] == lcol_[pk]) {
          s -= lval_[pi] * lval_[pk];
          ++pi;
          ++pk;
        } else if (lcol_[pi] < lcol_[pk]) {
          ++pi;
        } else {
          ++pk;
        }
      }
      lval_[p] = s / lval_[k_diag];
    }
    double d = lval_[row_diag];
    for (std::size_t p = row_lo; p < row_diag; ++p) d -= lval_[p] * lval_[p];
    // Diagonally dominant M-matrices (every thermal operator we assemble)
    // cannot break down here; fail loudly if handed something else.
    LIQUID3D_REQUIRE(d > 0.0, "IC(0) breakdown: matrix is not an H-matrix");
    lval_[row_diag] = std::sqrt(d);
  }
}

void PcgSolver::apply_preconditioner(const double* r, double* z) const {
  // Forward solve L y = r, then backward solve Lᵀ z = y, in place.
  const std::size_t n = a_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t diag = lrow_ptr_[i + 1] - 1;
    double acc = r[i];
    for (std::size_t p = lrow_ptr_[i]; p < diag; ++p) {
      acc -= lval_[p] * z[lcol_[p]];
    }
    z[i] = acc / lval_[diag];
  }
  for (std::size_t i = n; i-- > 0;) {
    const std::size_t diag = lrow_ptr_[i + 1] - 1;
    const double zi = z[i] / lval_[diag];
    z[i] = zi;
    for (std::size_t p = lrow_ptr_[i]; p < diag; ++p) {
      z[lcol_[p]] -= lval_[p] * zi;
    }
  }
}

PcgSummary PcgSolver::solve(const double* b, double* x, const OperatorTerm& minus_k) {
  // Profiling hooks (out of band; see docs/observability.md): wall time
  // per solve, iteration count, and final relative residual.  Iteration
  // growth with grid resolution is the ROADMAP's preconditioner metric.
  static obs::Histogram& solve_h =
      obs::Registry::global().histogram("liquid3d_pcg_solve_seconds");
  static obs::Histogram& iters_h =
      obs::Registry::global().histogram("liquid3d_pcg_iterations");
  static obs::Histogram& resid_h =
      obs::Registry::global().histogram("liquid3d_pcg_residual");
  obs::ScopedTimer timer(solve_h);
  const auto finish = [this]() -> PcgSummary {
    if (obs::enabled()) {
      iters_h.record_always(static_cast<double>(last_.iterations));
      resid_h.record_always(last_.relative_residual);
    }
    return last_;
  };
  const std::size_t n = a_.size();
  ++solves_;
  // Chaos site: report a full-budget non-converged solve without touching
  // the iterate, exactly the shape a genuine stall presents to callers.
  if (fault_injection::should_fail("pcg.solve")) {
    last_ = {params_.max_iterations, 1.0, false};
    return finish();
  }

  double b_norm2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) b_norm2 += b[i] * b[i];
  if (b_norm2 == 0.0) {
    std::fill(x, x + n, 0.0);
    last_ = {0, 0.0, true};
    return finish();
  }
  const double target2 = params_.tolerance * params_.tolerance * b_norm2;

  // Right-preconditioned BiCGSTAB (van der Vorst 1992) on A - K: iterates
  // on (A - K) P⁻¹ and maps back through P⁻¹ as it goes, so r_ is always the
  // true system's recurrence residual.  z_ holds P⁻¹p, then P⁻¹s; q_ holds
  // v = (A - K) P⁻¹p.  With no K it solves the SPD system A x = b.
  const auto apply = [this, &minus_k](const double* v, double* y) {
    a_.multiply(v, y);
    if (minus_k) minus_k(v, y);
  };
  apply(x, q_.data());
  for (std::size_t i = 0; i < n; ++i) r_[i] = b[i] - q_[i];
  double r_norm2 = dot(r_, r_);
  std::size_t it = 0;
  // A vanishing inner product (or a non-finite one) leaves no direction to
  // continue in — a numerical outcome (SolverError), since the same
  // assembly succeeds at other operating points.
  const auto require_nonzero = [&](double v, const char* what) {
    if (!(std::isfinite(v) && v != 0.0)) {
      throw SolverError(std::string("BiCGSTAB breakdown: ") + what + " vanished",
                        "pcg", it, std::sqrt(r_norm2 / b_norm2));
    }
  };
  r_hat_ = r_;
  std::fill(p_.begin(), p_.end(), 0.0);
  std::fill(q_.begin(), q_.end(), 0.0);
  double rho = 1.0;
  double alpha = 1.0;
  double omega = 1.0;
  while (r_norm2 > target2 && it < params_.max_iterations) {
    ++it;
    const double rho_next = dot(r_hat_, r_);
    require_nonzero(rho_next, "<r_hat, r>");
    const double beta = (rho_next / rho) * (alpha / omega);
    rho = rho_next;
    for (std::size_t i = 0; i < n; ++i) p_[i] = r_[i] + beta * (p_[i] - omega * q_[i]);
    apply_preconditioner(p_.data(), z_.data());
    apply(z_.data(), q_.data());
    const double r_hat_v = dot(r_hat_, q_);
    require_nonzero(r_hat_v, "<r_hat, v>");
    alpha = rho / r_hat_v;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * z_[i];
      r_[i] -= alpha * q_[i];  // r_ now holds s
    }
    r_norm2 = dot(r_, r_);
    if (r_norm2 <= target2) break;
    apply_preconditioner(r_.data(), z_.data());
    apply(z_.data(), t_.data());
    omega = dot(t_, r_) / dot(t_, t_);
    require_nonzero(omega, "omega");
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += omega * z_[i];
      r_[i] -= omega * t_[i];
    }
    r_norm2 = dot(r_, r_);
  }
  last_ = {it, std::sqrt(r_norm2 / b_norm2), r_norm2 <= target2};
  return finish();
}

}  // namespace liquid3d
