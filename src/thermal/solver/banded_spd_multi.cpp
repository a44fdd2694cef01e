// banded_spd_multi.cpp — the multi-RHS triangular-solve kernels, isolated in
// their own translation unit so the build can compile them with full-width
// (512-bit) vector preference on AVX-512 hosts without touching the
// single-RHS path: the system-lane loops here are long streams of
// independent element-wise FMAs — exactly the shape wide vectors pay off
// for (~1.6x at 16 lanes) — while the single-RHS dot-product reduction is
// latency-bound and regresses under the same preference.  See CMakeLists
// (LIQUID3D_PREFER_WIDE_VECTORS) for the flag plumbing.
#include "thermal/solver/banded_spd_kernels.hpp"

#include <algorithm>
#include <array>
#include <vector>

namespace liquid3d::detail {

namespace {


// Multi-RHS triangular solves: the same blocked algorithm as the single-RHS
// path with the system loop innermost.  Every floating-point operation a
// given system sees — order, association, and the use of division rather
// than reciprocal multiplication — is identical to the single-RHS kernel,
// so each column of a batched solve is bit-identical to a standalone solve
// of that right-hand side (systems interleave, but no system's own sequence
// changes).  The factor column is loaded once per row and reused across all
// systems, every inner loop strides unit over the interleaved layout, and
// the finalized y rows of each block are staged into a scratch buffer so
// the hot loops see provably distinct (__restrict__) arrays — that is where
// the per-solve win comes from.
//
// NR is the compile-time system count (0 = runtime `nrhs`): the dispatcher
// below instantiates the common batch widths so the per-row system loops
// fully unroll into straight-line vector code instead of paying a
// vector-loop setup on every entry — with a 16-trip inner loop entered
// O(n b / 8) times, that setup cost dominated the runtime-width version.
template <std::size_t NR>
void solve_multi(const double* const band, double* const x, std::size_t n,
                 std::size_t b, std::size_t w, std::size_t nrhs_runtime) {
  const std::size_t nrhs = NR == 0 ? nrhs_runtime : NR;
  constexpr std::size_t kBlk = 8;
  // Lane scratch on the stack for the compile-time widths — this function
  // runs once per substep of a batched air group, so a per-call heap
  // allocation would sit in the hot loop; only the unbounded
  // runtime-width fallback pays for a vector.
  std::array<double, kBlk * (NR == 0 ? 1 : NR)> scratch_fixed;
  std::vector<double> scratch_dyn(NR == 0 ? kBlk * nrhs : 0);
  double* __restrict__ const yblk =
      NR == 0 ? scratch_dyn.data() : scratch_fixed.data();

  // Forward: L y = rhs.
  std::size_t j0 = 0;
  for (; j0 + kBlk <= n; j0 += kBlk) {
    // Finalize y within the block (intra-block dependencies are the
    // kBlk x kBlk lower triangle at the top of the block's columns).
    for (std::size_t j = j0; j < j0 + kBlk; ++j) {
      double* const xj = x + j * nrhs;
      const double dj = band[j * w];
      double* __restrict__ const yj = yblk + (j - j0) * nrhs;
      for (std::size_t r = 0; r < nrhs; ++r) yj[r] = xj[r];
      for (std::size_t p = j0; p < j; ++p) {
        if (j - p > b) continue;
        const double lpj = band[p * w + (j - p)];
        const double* const yp = yblk + (p - j0) * nrhs;
        for (std::size_t r = 0; r < nrhs; ++r) yj[r] -= lpj * yp[r];
      }
      for (std::size_t r = 0; r < nrhs; ++r) yj[r] /= dj;
      for (std::size_t r = 0; r < nrhs; ++r) xj[r] = yj[r];
    }
    // Fused update of the rows every block column reaches.
    const double* __restrict__ const y0 = yblk;
    const double* __restrict__ const y1 = y0 + nrhs;
    const double* __restrict__ const y2 = y1 + nrhs;
    const double* __restrict__ const y3 = y2 + nrhs;
    const double* __restrict__ const y4 = y3 + nrhs;
    const double* __restrict__ const y5 = y4 + nrhs;
    const double* __restrict__ const y6 = y5 + nrhs;
    const double* __restrict__ const y7 = y6 + nrhs;
    const double* const c0 = band + j0 * w - j0;
    const double* const c1 = c0 + w - 1;
    const double* const c2 = c1 + w - 1;
    const double* const c3 = c2 + w - 1;
    const double* const c4 = c3 + w - 1;
    const double* const c5 = c4 + w - 1;
    const double* const c6 = c5 + w - 1;
    const double* const c7 = c6 + w - 1;
    const std::size_t i_common = std::min(n - 1, j0 + b);
    for (std::size_t i = j0 + kBlk; i <= i_common; ++i) {
      double* __restrict__ const xi = x + i * nrhs;
      const double l0 = c0[i], l1 = c1[i], l2 = c2[i], l3 = c3[i];
      const double l4 = c4[i], l5 = c5[i], l6 = c6[i], l7 = c7[i];
      for (std::size_t r = 0; r < nrhs; ++r) {
        xi[r] -= l0 * y0[r] + l1 * y1[r] + l2 * y2[r] + l3 * y3[r] +
                 l4 * y4[r] + l5 * y5[r] + l6 * y6[r] + l7 * y7[r];
      }
    }
    // Per-column tails beyond the first column's band reach.
    for (std::size_t j = j0 + 1; j < j0 + kBlk; ++j) {
      const std::size_t i_hi = std::min(n - 1, j + b);
      const double* const cj = band + j * w - j;
      const double* __restrict__ const yj = yblk + (j - j0) * nrhs;
      for (std::size_t i = std::max(i_common + 1, j0 + kBlk); i <= i_hi; ++i) {
        const double lj = cj[i];
        double* __restrict__ const xi = x + i * nrhs;
        for (std::size_t r = 0; r < nrhs; ++r) xi[r] -= lj * yj[r];
      }
    }
  }
  for (std::size_t j = j0; j < n; ++j) {
    const double* const colj = band + j * w;
    double* const xj = x + j * nrhs;
    const std::size_t m = std::min(b, n - 1 - j);
    double* __restrict__ const yj = yblk;
    for (std::size_t r = 0; r < nrhs; ++r) yj[r] = xj[r] / colj[0];
    for (std::size_t r = 0; r < nrhs; ++r) xj[r] = yj[r];
    for (std::size_t t = 1; t <= m; ++t) {
      const double l = colj[t];
      double* __restrict__ const xi = x + (j + t) * nrhs;
      for (std::size_t r = 0; r < nrhs; ++r) xi[r] -= l * yj[r];
    }
  }

  // Backward: L^T x = y.  The single-RHS branch's eight scalar accumulators
  // become eight contiguous lanes of `yblk`; the reassociated eight-way sum
  // and the final division are replicated exactly per system.
  double* __restrict__ const s0 = yblk;
  double* __restrict__ const s1 = s0 + nrhs;
  double* __restrict__ const s2 = s1 + nrhs;
  double* __restrict__ const s3 = s2 + nrhs;
  double* __restrict__ const s4 = s3 + nrhs;
  double* __restrict__ const s5 = s4 + nrhs;
  double* __restrict__ const s6 = s5 + nrhs;
  double* __restrict__ const s7 = s6 + nrhs;
  for (std::size_t jj = n; jj-- > 0;) {
    const double* const colj = band + jj * w;
    const std::size_t m = std::min(b, n - 1 - jj);
    double* const xj = x + jj * nrhs;
    for (std::size_t r = 0; r < kBlk * nrhs; ++r) yblk[r] = 0.0;
    const double* const xs = x + jj * nrhs;
    std::size_t t = 1;
    for (; t + 7 <= m; t += 8) {
      const double l0 = colj[t], l1 = colj[t + 1], l2 = colj[t + 2];
      const double l3 = colj[t + 3], l4 = colj[t + 4], l5 = colj[t + 5];
      const double l6 = colj[t + 6], l7 = colj[t + 7];
      const double* const x0 = xs + t * nrhs;
      for (std::size_t r = 0; r < nrhs; ++r) {
        s0[r] += l0 * x0[r];
        s1[r] += l1 * x0[nrhs + r];
        s2[r] += l2 * x0[2 * nrhs + r];
        s3[r] += l3 * x0[3 * nrhs + r];
        s4[r] += l4 * x0[4 * nrhs + r];
        s5[r] += l5 * x0[5 * nrhs + r];
        s6[r] += l6 * x0[6 * nrhs + r];
        s7[r] += l7 * x0[7 * nrhs + r];
      }
    }
    for (; t <= m; ++t) {
      const double l = colj[t];
      const double* const xt = xs + t * nrhs;
      for (std::size_t r = 0; r < nrhs; ++r) s0[r] += l * xt[r];
    }
    for (std::size_t r = 0; r < nrhs; ++r) {
      xj[r] = (xj[r] - (((s0[r] + s1[r]) + (s2[r] + s3[r])) +
                        ((s4[r] + s5[r]) + (s6[r] + s7[r])))) /
              colj[0];
    }
  }
}

}  // namespace

void solve_multi_dispatch(const double* band, double* x, std::size_t n,
                          std::size_t b, std::size_t w, std::size_t nrhs) {
  // Instantiate the common batch widths so the per-row system loops are
  // compile-time-unrolled; anything else takes the runtime-width kernel.
  switch (nrhs) {
    case 2: solve_multi<2>(band, x, n, b, w, nrhs); return;
    case 3: solve_multi<3>(band, x, n, b, w, nrhs); return;
    case 4: solve_multi<4>(band, x, n, b, w, nrhs); return;
    case 5: solve_multi<5>(band, x, n, b, w, nrhs); return;
    case 6: solve_multi<6>(band, x, n, b, w, nrhs); return;
    case 7: solve_multi<7>(band, x, n, b, w, nrhs); return;
    case 8: solve_multi<8>(band, x, n, b, w, nrhs); return;
    case 9: solve_multi<9>(band, x, n, b, w, nrhs); return;
    case 10: solve_multi<10>(band, x, n, b, w, nrhs); return;
    case 11: solve_multi<11>(band, x, n, b, w, nrhs); return;
    case 12: solve_multi<12>(band, x, n, b, w, nrhs); return;
    case 13: solve_multi<13>(band, x, n, b, w, nrhs); return;
    case 14: solve_multi<14>(band, x, n, b, w, nrhs); return;
    case 15: solve_multi<15>(band, x, n, b, w, nrhs); return;
    case 16: solve_multi<16>(band, x, n, b, w, nrhs); return;
    default: solve_multi<0>(band, x, n, b, w, nrhs); return;
  }
}

}  // namespace liquid3d::detail
