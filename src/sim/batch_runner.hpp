// batch_runner.hpp — co-advance many independent simulation sessions so
// that compatible ones share thermal factors and triangular sweeps.
//
// The evaluation grid of Sec. V is dozens of independent (policy x cooling
// x workload) cells over ONE stack geometry and ONE sampling interval, and
// at almost every substep most cells solve the same operator.  A
// BatchRunner cuts its cells into slices of at most kSliceSessions, in
// add order, builds a slice's sessions when the slice starts and runs them
// to completion before the next.  Every model of a run solves through one
// FactorCache (thermal/factor_cache.hpp), keyed by topology fingerprint,
// 1/dt and flow vector, so a session solves through any factor an earlier
// one in the run — or, with a caller's cache, in an earlier run — built at
// its key.  Within a slice, sessions whose conduction topology
// (ThermalModel3D::topology_fingerprint()), sampling interval and substep
// count agree form a lockstep group: every substep goes through
// ThermalModel3D::step_lockstep, so the models whose LU key agrees solve
// through one factor in one multi-right-hand-side sweep.  Air cells' key is
// 1/dt alone, so an air group shares every substep; liquid cells share while
// their flow vectors are equal.
//
// Each slice's warm starts, and each lockstep substep, are one round of
// the cache's lookups (thermal/factor_cache.hpp).  run() takes the slices
// one after another on the calling thread, with a cache of its own or the
// caller's (each serve queue worker keeps one across its batches);
// run_sliced() takes a list of cell configurations and runs its slices on
// a thread pool, each worker with its own cache (the ExperimentSuite grid
// and the sweep worker's chunks).
//
// Scheduling, power, control and metrics stay entirely per-session — only
// the factor and the sweep through it are shared — and a shared factor is
// bit-identical to the one each cell would have built, while each
// right-hand side of a sweep is solved bit for bit as alone, so a
// BatchRunner's results are BIT-IDENTICAL to serial SimulationSession::run()
// calls (locked in by tests/test_session_batch.cpp).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "sim/session.hpp"
#include "thermal/factor_cache.hpp"

namespace liquid3d {

class ThreadPool;

class BatchRunner {
 public:
  /// Most sessions one slice co-advances, and the slots of each worker's
  /// FactorCache.  On the paper grid's two workers, slices of 2 / 4 / 8
  /// measured 6.7-7.2 / 4.9-5.6 / 5.2-5.9 ms of CPU per cell, and 8 kept
  /// 1.4 MB more resident (docs/performance.md, "Lockstep slices"); four
  /// is also the most columns BandedLuMatrix::solve carries through one
  /// load of the factor.
  static constexpr std::size_t kSliceSessions = 4;

  /// Runs on a cell's session once it is built, before init() — where the
  /// serve queue attaches a trace collector.
  using OnBuild = std::function<void(SimulationSession&)>;

  BatchRunner() = default;

  /// Enqueue a cell; returns its index.  Its session is built when its
  /// slice starts and destroyed when the slice ends.
  std::size_t add(SimulationConfig cfg, OnBuild on_build = {});

  /// Build, initialize and run every cell's session to completion, slice
  /// by slice on the calling thread, through a FactorCache of
  /// kSliceSessions slots that keeps one factor between rounds, as a
  /// run_sliced worker's does.  Results are in add order.
  std::vector<SimulationResult> run();
  /// run(), through `cache`: factors earlier runs left there serve this
  /// one, and this run's stay for the next.
  std::vector<SimulationResult> run(FactorCache& cache);

  /// Run `cells` on `pool`, slices of kSliceSessions consecutive cells at
  /// a time: each worker builds a slice's sessions and runs them as run()
  /// does, through one FactorCache it keeps from slice to slice.  The cache
  /// keeps one factor between rounds: a grid's slices go scenario by
  /// scenario and seldom return to an older key, so a worker holds no more
  /// bands than its slices need at once.  Results are in cell order.
  [[nodiscard]] static std::vector<SimulationResult> run_sliced(
      std::span<const SimulationConfig> cells, ThreadPool& pool);

  /// Distinct lockstep groupings (topology, interval, substeps) among the
  /// sessions of the last run().
  [[nodiscard]] std::size_t group_count() const { return group_count_; }

 private:
  struct Cell {
    SimulationConfig cfg;
    OnBuild on_build;
  };
  std::vector<Cell> cells_;
  std::size_t group_count_ = 0;
};

}  // namespace liquid3d
