// madd.hpp — a * b + c with its rounding fixed by the target, not by the
// optimizer.
//
// Under GCC's default floating-point contraction (-ffp-contract=fast) the
// compiler fuses `c + a * b` into one FMA (a single rounding) on targets
// with hardware FMA — but only where it sees the product feed the add
// directly, so the same source line can round differently after an
// unrelated edit nearby.  Kernels whose results must stay bit-identical
// across restructurings spell the fusion out with madd(): one rounding
// where the target has FMA, two elsewhere — what that default contraction
// gives a plain `c + a * b` kernel loop.
#pragma once

#include <cmath>

namespace liquid3d {

inline double madd(double a, double b, double c) {
#ifdef FP_FAST_FMA
  return std::fma(a, b, c);
#else
  return a * b + c;
#endif
}

}  // namespace liquid3d
