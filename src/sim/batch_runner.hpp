// batch_runner.hpp — co-advance many independent simulation sessions so
// compatible ones share a thermal factorization.
//
// The evaluation grid of Sec. V is dozens of independent (policy x cooling
// x workload) cells over ONE stack geometry and ONE sampling interval.
// Each cell's model steps itself through its own banded-LU slot, and a
// group's models are linked (ThermalModel3D::share_factors_with), so a
// model whose slot does not fit the current key solves through a
// groupmate's that does instead of refactorizing.  Air cells' operator
// C/dt + G depends only on the topology and dt, so an air group
// factorizes once per dt between all its cells; liquid cells' eliminated
// operators also carry each cell's flow vector, so cells at an equal flow
// vector factorize once between them.  There are no multi-RHS solves: every
// solve is one cell's single right-hand side.
//
// Grouping is automatic: sessions whose conduction topology
// (ThermalModel3D::topology_fingerprint()), sampling interval, and substep
// count agree advance together; anything else falls into its own group and
// simply runs serially.  Scheduling, power, control, and metrics stay
// entirely per-session — only the factorization is shared — and a borrowed
// factor is bit-identical to the one each cell would have built, so a
// BatchRunner's results are BIT-IDENTICAL to serial Simulator::run() calls
// (locked in by tests/test_session_batch.cpp).
#pragma once

#include <memory>
#include <vector>

#include "sim/session.hpp"
#include "thermal/model3d.hpp"

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

 private:
  std::vector<std::unique_ptr<SimulationSession>> sessions_;
  std::size_t group_count_ = 0;
  // Per-run scratch.
  std::vector<SimulationSession*> active_;
};

}  // namespace liquid3d
