// reference_dense_lu.hpp — dense LU with partial pivoting, factorized once
// and solved many times: the test oracle for the fluid-eliminated step.
// It shares nothing with the library's banded LU (no band storage, no
// blocking, row interchanges where the library pivots in place), so
// agreement with it checks the production factor where the operator's rows
// are not diagonally dominant and the unpivoted factor has no a-priori
// stability guarantee.  O(n^3) to factorize: for test grids of a few
// hundred nodes.  Not part of the library.
#pragma once

#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/linalg.hpp"

namespace liquid3d::reference {

class DenseLu {
 public:
  /// Factorizes P A = L U (unit lower L); throws LogicError on a singular A.
  explicit DenseLu(Matrix a) : lu_(std::move(a)), perm_(lu_.rows()) {
    const std::size_t n = lu_.rows();
    LIQUID3D_REQUIRE(lu_.cols() == n, "dense LU needs a square matrix");
    for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
    for (std::size_t k = 0; k < n; ++k) {
      std::size_t pivot = k;
      for (std::size_t i = k + 1; i < n; ++i) {
        if (std::abs(lu_(i, k)) > std::abs(lu_(pivot, k))) pivot = i;
      }
      if (lu_(pivot, k) == 0.0) throw LogicError("dense LU: singular matrix");
      if (pivot != k) {
        for (std::size_t j = 0; j < n; ++j) std::swap(lu_(k, j), lu_(pivot, j));
        std::swap(perm_[k], perm_[pivot]);
      }
      for (std::size_t i = k + 1; i < n; ++i) {
        const double l = lu_(i, k) / lu_(k, k);
        lu_(i, k) = l;
        for (std::size_t j = k + 1; j < n; ++j) lu_(i, j) -= l * lu_(k, j);
      }
    }
  }

  /// x with A x = b.
  [[nodiscard]] std::vector<double> solve(const std::vector<double>& b) const {
    const std::size_t n = lu_.rows();
    LIQUID3D_REQUIRE(b.size() == n, "dense LU right-hand side size mismatch");
    std::vector<double> x(n);
    for (std::size_t i = 0; i < n; ++i) {
      double v = b[perm_[i]];
      for (std::size_t j = 0; j < i; ++j) v -= lu_(i, j) * x[j];
      x[i] = v;
    }
    for (std::size_t i = n; i-- > 0;) {
      double v = x[i];
      for (std::size_t j = i + 1; j < n; ++j) v -= lu_(i, j) * x[j];
      x[i] = v / lu_(i, i);
    }
    return x;
  }

 private:
  Matrix lu_;
  std::vector<std::size_t> perm_;
};

}  // namespace liquid3d::reference
