#include "thermal/solver/backend.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"

namespace liquid3d {

const char* to_string(SolverBackend b) {
  switch (b) {
    case SolverBackend::kAuto: return "auto";
    case SolverBackend::kDirect: return "direct";
    case SolverBackend::kPcg: return "pcg";
  }
  return "?";
}

SolverBackend solver_backend_from_name(std::string_view s) {
  if (s == "auto") return SolverBackend::kAuto;
  if (s == "direct") return SolverBackend::kDirect;
  if (s == "pcg") return SolverBackend::kPcg;
  throw ConfigError("unknown solver backend name '" + std::string(s) + "'");
}

double solve_cost_per_row(SolverBackend backend, std::size_t half_bandwidth) {
  LIQUID3D_REQUIRE(backend != SolverBackend::kAuto,
                   "solve cost needs a resolved backend");
  // Solves served by one factorization before its key changes — transient
  // runs reuse a factor for thousands of substeps at a fixed flow, so this
  // is a deliberately conservative (direct-favoring) amortization.
  constexpr double kDirectFactorAmortization = 200.0;
  // Iteration estimate and per-row flop count sized for one CG iteration
  // (one SpMV, one IC(0) apply, the vector updates).  They predate the
  // BiCGSTAB solve, whose iteration does two SpMVs, two IC(0) applies and,
  // on liquid stacks, two coolant marches; they were not re-measured, so
  // the ~215 cutover is unverified for the liquid PCG path.
  constexpr double kPcgIterationEstimate = 60.0;
  constexpr double kPcgFlopsPerRow = 22.0;
  if (backend == SolverBackend::kPcg) return kPcgIterationEstimate * kPcgFlopsPerRow;
  const double b = static_cast<double>(half_bandwidth);
  return 4.0 * b + 2.0 * b * b / kDirectFactorAmortization;
}

SolverBackend resolve_solver_backend(SolverBackend requested, std::size_t n,
                                     std::size_t half_bandwidth) {
  if (requested != SolverBackend::kAuto) return requested;
  const std::size_t b = std::min(half_bandwidth, n - 1);
  return solve_cost_per_row(SolverBackend::kDirect, b) >
                 solve_cost_per_row(SolverBackend::kPcg, b)
             ? SolverBackend::kPcg
             : SolverBackend::kDirect;
}

}  // namespace liquid3d
