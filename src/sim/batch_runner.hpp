// batch_runner.hpp — co-advance many independent simulation sessions so
// that compatible ones share thermal factors and triangular sweeps.
//
// The evaluation grid of Sec. V is dozens of independent (policy x cooling
// x workload) cells over ONE stack geometry and ONE sampling interval, and
// at almost every substep most cells solve the same operator.  A
// BatchRunner cuts its sessions into slices of at most kSliceSessions, in
// add order, and runs one slice to completion before the next.  Within a
// slice, sessions whose conduction topology
// (ThermalModel3D::topology_fingerprint()), sampling interval and substep
// count agree form a lockstep group: their models are linked
// (ThermalModel3D::share_factors_with) and every substep goes through
// ThermalModel3D::step_lockstep, so the models whose LU key (1/dt and flow
// vector) agrees solve through one factor in one multi-right-hand-side
// sweep.  Air cells' key is 1/dt alone, so an air group shares every
// substep; liquid cells share while their flow vectors are equal.  Factor
// links stay inside a slice, and the LU storage of a finished slice is
// handed to the next slice's models instead of being freed and allocated
// again.
//
// run() takes the slices one after another on the calling thread (the
// serve queue's batches), and run(storage) also hands its last slice's LU
// storage to the caller's next batch, as the serve queue's workers keep
// theirs; run_sliced() takes a list of cell configurations and runs its
// slices on a thread pool, building each slice's sessions on the worker
// that runs it (the ExperimentSuite grid and the sweep worker's chunks).
//
// Scheduling, power, control and metrics stay entirely per-session — only
// the factor and the sweep through it are shared — and a shared factor is
// bit-identical to the one each cell would have built, while each
// right-hand side of a sweep is solved bit for bit as alone, so a
// BatchRunner's results are BIT-IDENTICAL to serial SimulationSession::run()
// calls (locked in by tests/test_session_batch.cpp).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "sim/session.hpp"
#include "thermal/model3d.hpp"

namespace liquid3d {

class ThreadPool;

class BatchRunner {
 public:
  /// LU bands a finished slice left for the next one to adopt.
  using FactorStorage = std::vector<std::unique_ptr<BandedLuMatrix>>;

  /// Most sessions one slice co-advances.  On the paper grid's two
  /// workers, slices of 2 / 4 / 8 measured 6.7-7.2 / 4.9-5.6 / 5.2-5.9 ms
  /// of CPU per cell, and 8 kept 1.4 MB more resident (docs/performance.md,
  /// "Lockstep slices"); four is also the most columns BandedLuMatrix::solve
  /// carries through one load of the factor.
  static constexpr std::size_t kSliceSessions = 4;

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

  /// Initialize and run every session to completion, slice by slice on the
  /// calling thread.  Results are in add order.
  std::vector<SimulationResult> run();
  /// run(), with the first slice's models adopting bands from `storage`
  /// and the last slice's bands left in it afterwards.
  std::vector<SimulationResult> run(FactorStorage& storage);

  /// Run `cells` on `pool`, slices of kSliceSessions consecutive cells at
  /// a time: each worker builds a slice's sessions, runs them as run()
  /// does, and keeps its LU storage for its next slice.  Results are in
  /// cell order.
  [[nodiscard]] static std::vector<SimulationResult> run_sliced(
      std::span<const SimulationConfig> cells, ThreadPool& pool);

  /// Distinct lockstep groupings (topology, interval, substeps) among the
  /// sessions of the last run().
  [[nodiscard]] std::size_t group_count() const { return group_count_; }

 private:
  std::vector<std::unique_ptr<SimulationSession>> sessions_;
  std::size_t group_count_ = 0;
};

}  // namespace liquid3d
