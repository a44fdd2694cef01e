// reference_banded_lu.hpp — the unblocked banded LU kernels (right-looking
// factorization, one axpy per pivot in both triangular solves) that
// BandedLuMatrix's blocked kernels replaced, kept verbatim (modulo the raw
// band interface) as the oracle the blocked kernels must reproduce bit for
// bit, and as the micro-benchmark baseline.  Not part of the library.
//
// Each update x -= a * b is spelled madd(-a, b, x), as the library kernels
// spell theirs, so its rounding is the target's and not the optimizer's:
// the oracle then holds in every build, debug and sanitizer builds
// included (see common/madd.hpp).
//
// The band is BandedLuMatrix's column-major layout: element (i, j) lives at
// band[j * (bl + bu + 1) + (i - j + bu)].
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "common/madd.hpp"

namespace liquid3d::reference {

/// In-place unpivoted LU (unit lower L) of an n x n band.
inline void banded_lu_factorize(std::vector<double>& band_v, std::size_t n,
                                std::size_t bl, std::size_t bu) {
  const std::size_t w = bl + bu + 1;
  double* const band = band_v.data();
  for (std::size_t k = 0; k < n; ++k) {
    double* const colk = band + k * w;
    const double pivot = colk[bu];
    LIQUID3D_ASSERT(std::abs(pivot) > 1e-300, "banded LU: vanishing pivot");
    const double inv = 1.0 / pivot;
    const std::size_t ml = std::min(bl, n - 1 - k);
    for (std::size_t i = 1; i <= ml; ++i) colk[bu + i] *= inv;
    const std::size_t mu = std::min(bu, n - 1 - k);
    for (std::size_t j = 1; j <= mu; ++j) {
      double* const colj = band + (k + j) * w;
      const double ukj = colj[bu - j];
      if (ukj == 0.0) continue;
      double* const dst = colj + (bu - j);
      const double* const src = colk + bu;
      for (std::size_t i = 1; i <= ml; ++i) dst[i] = madd(-src[i], ukj, dst[i]);
    }
  }
}

/// Solve A x = rhs in place through a band factorized by
/// banded_lu_factorize.
inline void banded_lu_solve(const std::vector<double>& band_v, std::size_t n,
                            std::size_t bl, std::size_t bu,
                            std::vector<double>& rhs) {
  const std::size_t w = bl + bu + 1;
  const double* const band = band_v.data();
  double* const x = rhs.data();
  // Forward, unit-diagonal L: once y[k] is final, push it down the column.
  for (std::size_t k = 0; k < n; ++k) {
    const double yk = x[k];
    if (yk == 0.0) continue;
    const double* const colk = band + k * w + bu;
    const std::size_t ml = std::min(bl, n - 1 - k);
    for (std::size_t i = 1; i <= ml; ++i) x[k + i] = madd(-colk[i], yk, x[k + i]);
  }
  // Backward, U: finalize x[j], then push it up the column.
  for (std::size_t jj = n; jj-- > 0;) {
    const double* const colj = band + jj * w + bu;
    const double xj = x[jj] / colj[0];
    x[jj] = xj;
    const std::size_t mu = std::min(bu, jj);
    const double* const up = colj - jj;  // up[i] = U(i, jj)
    for (std::size_t i = jj - mu; i < jj; ++i) x[i] = madd(-up[i], xj, x[i]);
  }
}

}  // namespace liquid3d::reference
