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

SolverBackend resolve_solver_backend(SolverBackend requested, std::size_t n,
                                     std::size_t half_bandwidth) {
  if (requested != SolverBackend::kAuto) return requested;
  // Solves served by one factorization before its key changes — transient
  // runs reuse a factor for thousands of substeps at a fixed flow, so this
  // is a deliberately conservative (direct-favoring) amortization.
  constexpr double kDirectFactorAmortization = 200.0;
  // Conservative iteration estimate for warm-started IC(0)-PCG on the
  // stencil, and the per-row flop count of one iteration (SpMV + IC(0)
  // sweeps + the vector updates).
  constexpr double kPcgIterationEstimate = 60.0;
  constexpr double kPcgFlopsPerRow = 22.0;

  const double b = static_cast<double>(std::min(half_bandwidth, n - 1));
  const double direct_per_row = 4.0 * b + 2.0 * b * b / kDirectFactorAmortization;
  const double pcg_per_row = kPcgIterationEstimate * kPcgFlopsPerRow;
  return direct_per_row > pcg_per_row ? SolverBackend::kPcg
                                      : SolverBackend::kDirect;
}

}  // namespace liquid3d
