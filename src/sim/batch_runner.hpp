// batch_runner.hpp — co-advance many independent simulation sessions so
// compatible ones share a thermal factorization.
//
// The evaluation grid of Sec. V is dozens of independent (policy x cooling
// x workload) cells over ONE stack geometry and ONE sampling interval.
// Air-cooled cells have identical backward-Euler system matrices, so
// running them in lockstep lets every thermal substep route all cells' RHS
// vectors through one cached banded Cholesky factor
// (BandedSpdMatrix::solve(span, nrhs)) instead of streaming the same
// factor once per cell.  Liquid cells' fluid-eliminated operators also
// depend on each cell's flow vector: a group's models are linked
// (ThermalModel3D::share_factors_with) so cells at an equal flow vector
// factorize once between them.
//
// Grouping is automatic: sessions whose conduction topology
// (ThermalModel3D::topology_fingerprint()), sampling interval, and substep
// count agree advance together; anything else falls into its own group and
// simply runs serially.  Scheduling, power, control, and metrics stay
// entirely per-session — only the inner linear solve is shared — and the
// multi-RHS kernel replicates single-RHS arithmetic per system (a shared
// LU factor is the one each cell would have built), so a BatchRunner's
// results are BIT-IDENTICAL to serial Simulator::run() calls (locked in by
// tests/test_session_batch.cpp).
#pragma once

#include <memory>
#include <vector>

#include "sim/session.hpp"
#include "thermal/batch_stepper.hpp"

namespace liquid3d {

class BatchRunner {
 public:
  BatchRunner() = default;

  /// Construct a session for `cfg` and enqueue it; returns its index.
  std::size_t add(SimulationConfig cfg);
  /// Enqueue an existing (not yet initialized) session; returns its index.
  std::size_t add(std::unique_ptr<SimulationSession> session);

  [[nodiscard]] std::size_t session_count() const { return sessions_.size(); }
  [[nodiscard]] SimulationSession& session(std::size_t i) {
    return *sessions_.at(i);
  }
  [[nodiscard]] const SimulationSession& session(std::size_t i) const {
    return *sessions_.at(i);
  }

  /// Initialize and run every session to completion, co-advancing each
  /// compatible group in lockstep.  Results are in add order.
  std::vector<SimulationResult> run();

  /// Lockstep groups formed by the last run().
  [[nodiscard]] std::size_t group_count() const { return group_count_; }
  /// Shared-solve statistics of the underlying stepper.
  [[nodiscard]] const BatchThermalStepper& stepper() const { return stepper_; }

 private:
  std::vector<std::unique_ptr<SimulationSession>> sessions_;
  BatchThermalStepper stepper_;
  std::size_t group_count_ = 0;
  // Per-run scratch.
  std::vector<SimulationSession*> active_;
  std::vector<ThermalModel3D*> models_;
};

}  // namespace liquid3d
