// backend.hpp — which linear solver family serves a thermal model.
//
// The backward-Euler systems can be solved two ways:
//
//   kDirect — banded LU (solver/banded_lu.hpp): factorize once per key at
//             O(n b^2), forward- and back-substitute per solve at O(n b).
//             Exact, cache-friendly, and unbeatable while the
//             half-bandwidth b = cols x layers stays modest (every grid the
//             tests and the paper evaluation use today).
//   kPcg    — one IC(0)-preconditioned Krylov solve over CSR per step
//             (solver/pcg.hpp): BiCGSTAB, with the coolant applied
//             matrix-free for liquid stacks.  No
//             factorization, O(nnz) ≈ O(7n) per iteration, warm-started
//             from the previous temperature field.  Meant for bands so
//             fat that O(n b^2) factorization hits the wall.  The paper's
//             100 µm cells make a 100 x 115 grid, b = 230 on 2 layers and
//             460 on 4, where the direct step is still the faster one
//             (ROADMAP item 3 records both).
//   kAuto   — pick per model from the bandwidth-driven cost model below;
//             resolves to kDirect for every grid the tests and the
//             evaluation run by default.
#pragma once

#include <cstddef>
#include <string_view>

namespace liquid3d {

enum class SolverBackend { kAuto, kDirect, kPcg };

[[nodiscard]] const char* to_string(SolverBackend b);
[[nodiscard]] SolverBackend solver_backend_from_name(std::string_view s);

/// Estimated flops per row of one solve on a resolved backend (kDirect or
/// kPcg) at the given half-bandwidth — the one cost model behind
/// resolve_solver_backend and the sweep planner's cell costs.  The direct
/// path costs ~4b flops of forward and back substitution (one multiply-add
/// per band entry of L and of U) plus 2b^2 / kDirectFactorAmortization of
/// factorization (a b x b rank-1 update per pivot; one factorization
/// serves the ~hundreds of solves a slot's key sees); PCG costs
/// ~kPcgIterationEstimate iterations of ~kPcgFlopsPerRow each, sized for
/// one IC(0)-preconditioned CG iteration on the stencil (a BiCGSTAB
/// iteration does twice that; the constants were not re-measured).
[[nodiscard]] double solve_cost_per_row(SolverBackend backend,
                                        std::size_t half_bandwidth);

/// Resolve kAuto to a concrete backend for an n-node system of the given
/// half-bandwidth (clamped to n - 1): the cheaper of the two per
/// solve_cost_per_row; explicit requests pass through untouched.  The
/// cutover lands near b ≈ 215 — above every default grid (b ≤ 208), but
/// below the paper's 100 µm grid (b = 230 on 2 layers, 460 on 4), which it
/// therefore sends to PCG although the direct step is faster there.
[[nodiscard]] SolverBackend resolve_solver_backend(SolverBackend requested,
                                                   std::size_t n,
                                                   std::size_t half_bandwidth);

}  // namespace liquid3d
