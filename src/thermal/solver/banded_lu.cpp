#include "thermal/solver/banded_lu.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/madd.hpp"

namespace liquid3d {

namespace {

// Every kernel below addresses the band through row-indexed column bases:
// col(j)[r] = A(r, j) for the rows r that column j stores.  Each blocked
// loop applies, to every element, exactly the updates the unblocked
// right-looking sweep applied and in the same order (ascending pivot in the
// factorization and forward solve, descending column in the backward
// solve), each as the same single `x - a * b`; only the loop nesting
// changes, so the factor and every solution are bit-identical to the
// unblocked kernels' (tests/reference_banded_lu.hpp).

/// Pivots per factorization panel, and unknowns per block of the
/// triangular solves.
constexpr std::size_t kBlock = 4;
/// Trailing columns a factorization panel updates together, sharing each
/// load of the panel's L columns.
constexpr std::size_t kColumnGroup = 4;
/// Right-hand sides the triangular solves carry together, sharing each
/// load of the factor.
constexpr std::size_t kRhsGroup = 4;

/// t - a * b, fused exactly where the compiler contracted the unblocked
/// kernels' `x -= a * b` (see common/madd.hpp).
inline double sub_product(double t, double a, double b) { return madd(-a, b, t); }

/// The band's geometry, with row-indexed column access.
struct Band {
  const double* data;
  std::size_t n;
  std::size_t bl;
  std::size_t bu;

  /// col(j)[r] = A(r, j); consecutive columns are stride() apart.
  [[nodiscard]] const double* col(std::size_t j) const {
    return data + j * stride() + bu;
  }
  [[nodiscard]] std::size_t stride() const { return bl + bu; }
};

/// f.template operator()<len>() for a run-time 0 < len <= K: the kernels
/// below are instantiated per block length so their loops fully unroll.
template <std::size_t K, typename F>
bool with_length(std::size_t len, F&& f) {
  if constexpr (K > 1) {
    if (len < K) return with_length<K - 1>(len, f);
  }
  return f.template operator()<K>();
}

/// For each of the NC row-indexed vectors x + v * stride,
///   x[r] -= sum_q cols[q][r] * coef[v * K + q]   over rows [r0, r1),
/// the K terms applied in list order.  Each element is read and written
/// once per K terms instead of once per term, and each load from cols
/// serves all NC vectors.  This and the fixed-shape kernels below are
/// forced inline: with a copy per right-hand-side count, GCC otherwise
/// calls them out of line, and the one-column solve and the factorization
/// measured 5-12% slower.
template <std::size_t K, std::size_t NC>
[[gnu::always_inline]] inline void fused_update(double* __restrict x,
                                                std::size_t stride,
                                                const double* const* cols,
                                                const double* coef,
                                                std::size_t r0, std::size_t r1) {
  const double* c[K];
  double a[NC][K];
  for (std::size_t q = 0; q < K; ++q) c[q] = cols[q];
  for (std::size_t v = 0; v < NC; ++v) {
    for (std::size_t q = 0; q < K; ++q) a[v][q] = coef[v * K + q];
  }
  for (std::size_t r = r0; r < r1; ++r) {
    double t[NC];
    for (std::size_t v = 0; v < NC; ++v) t[v] = x[r + v * stride];
    for (std::size_t q = 0; q < K; ++q) {
      const double l = c[q][r];
      for (std::size_t v = 0; v < NC; ++v) t[v] = sub_product(t[v], l, a[v][q]);
    }
    for (std::size_t v = 0; v < NC; ++v) x[r + v * stride] = t[v];
  }
}

/// fused_update on one vector for a run-time term count m <= kBlock.
void fused_update(double* x, const double* const* cols, const double* coef,
                  std::size_t m, std::size_t r0, std::size_t r1) {
  if (m == 0) return;
  with_length<kBlock>(m, [&]<std::size_t K>() {
    fused_update<K, 1>(x, 0, cols, coef, r0, r1);
    return true;
  });
}

/// Unit-lower elimination of a full block of M pivots [p0, p0 + M) from
/// NC row-indexed vectors x + v * stride (NC adjacent band columns, or one
/// right-hand side): the block's own rows are finalized pivot by pivot (a
/// small triangle, fully unrolled), the rows every pivot reaches take one
/// fused pass, and the ragged rows below take the later pivots.  Requires
/// M <= bl and p0 + M + bl <= n, so the shapes are fixed.  Returns false,
/// having written nothing, if some vector has a zero coefficient: the
/// unblocked sweep skipped such pivots, so the general path must.
template <std::size_t M, std::size_t NC>
[[gnu::always_inline]] inline bool eliminate_fixed(const Band& b, double* x,
                                                   std::size_t stride,
                                                   std::size_t p0) {
  const double* cols[M];
  double coef[NC * M];  // coef[v * M + q]: vector v's coefficient of pivot q
  for (std::size_t q = 0; q < M; ++q) {
    cols[q] = b.col(p0 + q);
    for (std::size_t v = 0; v < NC; ++v) {
      double t = x[p0 + q + v * stride];
      for (std::size_t s = 0; s < q; ++s) {
        t = sub_product(t, cols[s][p0 + q], coef[v * M + s]);
      }
      coef[v * M + q] = t;
    }
  }
  for (const double c : coef) {
    if (c == 0.0) return false;
  }
  for (std::size_t v = 0; v < NC; ++v) {
    for (std::size_t q = 1; q < M; ++q) x[p0 + q + v * stride] = coef[v * M + q];
  }
  const std::size_t full_end = p0 + b.bl + 1;
  fused_update<M, NC>(x, stride, cols, coef, p0 + M, full_end);
  for (std::size_t v = 0; v < NC; ++v) {
    for (std::size_t i = 0; i + 1 < M; ++i) {
      const std::size_t r = full_end + i + v * stride;
      double t = x[r];
      for (std::size_t q = i + 1; q < M; ++q) {
        t = sub_product(t, cols[q][full_end + i], coef[v * M + q]);
      }
      x[r] = t;
    }
  }
  return true;
}

/// eliminate() on one vector where the fixed shapes do not apply: zero
/// coefficients, and blocks the band edge cuts short.
void eliminate_general(const Band& b, double* x, std::size_t p0, std::size_t p1) {
  const double* cols[kBlock];
  double coef[kBlock];
  std::size_t reach[kBlock];  // one past the last row pivot q reaches
  std::size_t m = 0;
  // The first listed pivot whose rows reach row r (reach[] ascends).
  const auto first_reaching = [&](std::size_t r) {
    std::size_t q = 0;
    while (q < m && reach[q] <= r) ++q;
    return q;
  };
  // The block's own rows, in order: row p takes the listed pivots that
  // reach it and is then final — pivot p's coefficient.
  for (std::size_t p = p0; p < p1; ++p) {
    double t = x[p];
    for (std::size_t q = first_reaching(p); q < m; ++q) {
      t = sub_product(t, cols[q][p], coef[q]);
    }
    x[p] = t;
    if (t == 0.0) continue;
    cols[m] = b.col(p);
    coef[m] = t;
    reach[m] = std::min(p + b.bl + 1, b.n);
    ++m;
  }
  if (m == 0) return;
  // Rows every listed pivot reaches: one fused pass.
  fused_update(x, cols, coef, m, p1, reach[0]);
  // The ragged rows below, reached by the later pivots only.
  for (std::size_t r = std::max(p1, reach[0]); r < reach[m - 1]; ++r) {
    double t = x[r];
    for (std::size_t q = first_reaching(r); q < m; ++q) {
      t = sub_product(t, cols[q][r], coef[q]);
    }
    x[r] = t;
  }
}

/// Unit-lower elimination of the pivots [p0, p1) (at most kBlock) from the
/// NC row-indexed vectors x + v * stride: x[r] -= L(r, p) * x[p] for every
/// p in the block and every row r in (p, p + bl], with x[p] read once
/// final.  Pivots whose x[p] is zero contribute nothing and are skipped, as
/// the unblocked sweep skipped them.  The NC vectors share each load of L
/// where all of them take the fixed shapes; otherwise each is eliminated
/// alone.
template <std::size_t NC>
void eliminate(const Band& b, double* x, std::size_t stride, std::size_t p0,
               std::size_t p1) {
  const std::size_t len = p1 - p0;
  if (len <= b.bl && p1 + b.bl <= b.n &&
      with_length<kBlock>(len, [&]<std::size_t M>() {
        return eliminate_fixed<M, NC>(b, x, stride, p0);
      })) {
    return;
  }
  if constexpr (NC == 1) {
    eliminate_general(b, x, p0, p1);
  } else {
    for (std::size_t v = 0; v < NC; ++v) eliminate<1>(b, x + v * stride, 0, p0, p1);
  }
}

/// back_substitute() for a block of exactly M columns [j0, j0 + M) with
/// M <= bu and j0 >= bu, on the NC vectors x + v * stride: every column
/// reaches the whole block and the rows above it stay inside the matrix,
/// so the shapes are fixed.
template <std::size_t M, std::size_t NC>
[[gnu::always_inline]] inline void back_substitute_fixed(const Band& b, double* x,
                                                         std::size_t stride,
                                                         std::size_t j0) {
  const double* cols[M];  // cols[q] = column j0 + M - 1 - q
  double coef[NC * M];    // coef[v * M + q]: vector v's x at column q
  for (std::size_t q = 0; q < M; ++q) {
    const std::size_t jj = j0 + M - 1 - q;
    cols[q] = b.col(jj);
    for (std::size_t v = 0; v < NC; ++v) {
      double t = x[jj + v * stride];
      for (std::size_t s = 0; s < q; ++s) {
        t = sub_product(t, cols[s][jj], coef[v * M + s]);
      }
      coef[v * M + q] = t / cols[q][jj];
      x[jj + v * stride] = coef[v * M + q];
    }
  }
  const std::size_t full_begin = j0 + M - 1 - b.bu;
  fused_update<M, NC>(x, stride, cols, coef, full_begin, j0);
  for (std::size_t v = 0; v < NC; ++v) {
    for (std::size_t i = 0; i + 1 < M; ++i) {
      const std::size_t r = full_begin - 1 - i + v * stride;
      double t = x[r];
      for (std::size_t q = i + 1; q < M; ++q) {
        t = sub_product(t, cols[q][full_begin - 1 - i], coef[v * M + q]);
      }
      x[r] = t;
    }
  }
}

/// Backward substitution of the columns [j0, j1) (at most kBlock) through
/// U: from the bottom, each x[jj] takes the updates of the block's columns
/// below it and is divided by the diagonal; then every row above the block
/// takes the updates of the block's columns that reach it — each row in
/// descending column order, as in the unblocked sweep.  No column is
/// skipped: the unblocked backward sweep skipped none.  One vector, for the
/// blocks the band edges cut short.
void back_substitute_general(const Band& b, double* x, std::size_t j0,
                             std::size_t j1) {
  const double* cols[kBlock];
  double coef[kBlock];
  std::size_t lo[kBlock];  // the first row column q reaches
  std::size_t m = 0;
  // The first listed column that reaches row i (lo[] descends).
  const auto first_reached = [&](std::size_t i) {
    std::size_t q = 0;
    while (q < m && lo[q] > i) ++q;
    return q;
  };
  for (std::size_t jj = j1; jj-- > j0;) {
    double t = x[jj];
    for (std::size_t q = first_reached(jj); q < m; ++q) {
      t = sub_product(t, cols[q][jj], coef[q]);
    }
    const double* const uj = b.col(jj);
    const double xj = t / uj[jj];
    x[jj] = xj;
    cols[m] = uj;
    coef[m] = xj;
    lo[m] = jj >= b.bu ? jj - b.bu : 0;
    ++m;
  }
  // Rows every column of the block reaches (those of its top column
  // j1 - 1 above the block), then the rows only the lower columns reach.
  const std::size_t top_lo = j1 - 1 >= b.bu ? j1 - 1 - b.bu : 0;
  const std::size_t bottom_lo = j0 >= b.bu ? j0 - b.bu : 0;
  fused_update(x, cols, coef, m, top_lo, j0);
  for (std::size_t i = bottom_lo; i < std::min(top_lo, j0); ++i) {
    double t = x[i];
    for (std::size_t q = first_reached(i); q < m; ++q) {
      t = sub_product(t, cols[q][i], coef[q]);
    }
    x[i] = t;
  }
}

/// back_substitute() of the columns [j0, j1) on the NC vectors
/// x + v * stride.
template <std::size_t NC>
void back_substitute(const Band& b, double* x, std::size_t stride,
                     std::size_t j0, std::size_t j1) {
  const std::size_t len = j1 - j0;
  if (len <= b.bu && j0 >= b.bu) {
    with_length<kBlock>(len, [&]<std::size_t M>() {
      back_substitute_fixed<M, NC>(b, x, stride, j0);
      return true;
    });
    return;
  }
  for (std::size_t v = 0; v < NC; ++v) {
    back_substitute_general(b, x + v * stride, j0, j1);
  }
}

/// Both triangular solves of the NC right-hand sides x + v * stride, kBlock
/// unknowns at a time.  The forward sweep starts at the first row where
/// some right-hand side is nonzero: a leading run of zeros (a sparse
/// right-hand side) takes no elimination work at all.
template <std::size_t NC>
void solve_group(const Band& b, double* x, std::size_t stride) {
  std::size_t k0 = b.n;
  for (std::size_t v = 0; v < NC; ++v) {
    std::size_t first = 0;
    while (first < k0 && x[first + v * stride] == 0.0) ++first;
    k0 = first;
  }
  for (; k0 < b.n; k0 += kBlock) {
    eliminate<NC>(b, x, stride, k0, std::min(b.n, k0 + kBlock));
  }
  for (std::size_t j1 = b.n; j1 > 0;) {
    const std::size_t j0 = j1 > kBlock ? j1 - kBlock : 0;
    back_substitute<NC>(b, x, stride, j0, j1);
    j1 = j0;
  }
}

}  // namespace

BandedLuMatrix::BandedLuMatrix(std::size_t n, std::size_t lower_bandwidth,
                               std::size_t upper_bandwidth)
    : n_(n),
      bl_(lower_bandwidth),
      bu_(upper_bandwidth),
      w_(lower_bandwidth + upper_bandwidth + 1),
      band_(n * (lower_bandwidth + upper_bandwidth + 1), 0.0) {
  LIQUID3D_REQUIRE(n > 0, "matrix must be non-empty");
}

double& BandedLuMatrix::at(std::size_t i, std::size_t j) {
  LIQUID3D_ASSERT(i < n_ && j < n_ && i + bu_ >= j && j + bl_ >= i,
                  "band index out of range");
  return band_[j * w_ + (i - j + bu_)];
}

double BandedLuMatrix::at(std::size_t i, std::size_t j) const {
  LIQUID3D_ASSERT(i < n_ && j < n_ && i + bu_ >= j && j + bl_ >= i,
                  "band index out of range");
  return band_[j * w_ + (i - j + bu_)];
}

void BandedLuMatrix::add_coupling(std::size_t i, std::size_t j, double g) {
  LIQUID3D_ASSERT(i != j, "coupling requires distinct nodes");
  at(i, i) += g;
  at(j, j) += g;
  at(i, j) -= g;
  at(j, i) -= g;
}

void BandedLuMatrix::set_zero() {
  std::fill(band_.begin(), band_.end(), 0.0);
  factorized_ = false;
}

void BandedLuMatrix::factorize() {
  LIQUID3D_ASSERT(!factorized_, "matrix already factorized");
  // Panel-blocked right-looking LU.  Per panel of kBlock pivots, each
  // column the panel reaches is visited once: its rows inside the panel
  // are finalized pivot by pivot, and everything below takes all the
  // panel's updates in one fused pass — so a trailing column is streamed
  // once per panel instead of once per pivot, and kColumnGroup trailing
  // columns share each load of the panel's L.  A panel column is pivoted
  // as soon as its own updates are in, before the next one reads its L.
  const Band b{band_.data(), n_, bl_, bu_};
  const std::size_t stride = b.stride();
  for (std::size_t k0 = 0; k0 < n_; k0 += kBlock) {
    const std::size_t panel_end = std::min(n_, k0 + kBlock);
    const std::size_t c_end = std::min(n_, panel_end + bu_);
    // Trailing columns up to k0 + bu see the whole panel; grouped updates
    // need the fixed shapes of eliminate_fixed.
    const std::size_t group_end =
        (panel_end - k0 == kBlock && kBlock <= bl_ && panel_end + bl_ <= n_)
            ? std::min(c_end, k0 + bu_ + 1)
            : 0;
    for (std::size_t c = k0; c < c_end; ++c) {
      double* const x = band_.data() + c * stride + bu_;  // x[r] = A(r, c)
      if (c >= panel_end && c + kColumnGroup <= group_end &&
          eliminate_fixed<kBlock, kColumnGroup>(b, x, stride, k0)) {
        c += kColumnGroup - 1;
        continue;
      }
      const std::size_t p_lo = std::max(k0, c >= bu_ ? c - bu_ : 0);
      const std::size_t p_hi = std::min(c, panel_end);
      if (p_lo < p_hi) eliminate<1>(b, x, 0, p_lo, p_hi);
      if (c >= panel_end) continue;
      // Pivot c: every update it takes is in.
      const double pivot = x[c];
      if (!(std::abs(pivot) > 1e-300) || !std::isfinite(pivot)) {
        throw SolverError("banded LU: vanishing or non-finite pivot", "direct", c,
                          std::abs(pivot));
      }
      const double inv = 1.0 / pivot;
      const std::size_t r_end = std::min(c + bl_ + 1, n_);
      for (std::size_t r = c + 1; r < r_end; ++r) x[r] *= inv;
    }
  }
  factorized_ = true;
}

void BandedLuMatrix::solve(std::span<double> rhs) const {
  LIQUID3D_ASSERT(factorized_, "solve requires a factorized matrix");
  LIQUID3D_REQUIRE(!rhs.empty() && rhs.size() % n_ == 0, "rhs size mismatch");
  const Band b{band_.data(), n_, bl_, bu_};
  // kRhsGroup columns at a time share each load of the factor.
  for (std::size_t j = 0; j < rhs.size(); j += kRhsGroup * n_) {
    const std::size_t k = std::min(kRhsGroup, (rhs.size() - j) / n_);
    with_length<kRhsGroup>(k, [&]<std::size_t NC>() {
      solve_group<NC>(b, rhs.data() + j, n_);
      return true;
    });
  }
}

}  // namespace liquid3d
