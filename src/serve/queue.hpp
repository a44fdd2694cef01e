// queue.hpp — the asynchronous session-query queue behind ThermalService.
//
// Full-fidelity queries (what-if, replay) are submitted as SessionJobs and
// answered through futures.  A worker drains the queue in arrival order: as
// soon as it is free it takes the head job and every pending job with the
// head's group key, up to max_batch, and runs them as one BatchRunner
// lockstep run — the shared-factorization path that gives the
// batched-throughput win.  A lone job starts at once; jobs that arrive
// while a batch runs wait for the next, so a burst still batches.
// Grouping is by a caller-supplied key (ThermalService keys on the
// stack/grid topology, mirroring what BatchRunner's own compatibility
// grouping checks).  Each worker keeps one FactorCache across its batches,
// so a session solves through the factors its predecessors built.
//
// BatchRunner results are bit-identical to serial runs (a locked contract
// covered by its tests), so batched answers need no accuracy caveat.  If a
// batch throws, every job in it is retried solo so one poisoned
// configuration cannot take down its groupmates' answers.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/query.hpp"
#include "sim/batch_runner.hpp"

namespace liquid3d {

/// One queued full-fidelity run.
struct SessionJob {
  SimulationConfig cfg;
  /// Jobs with equal keys are eligible for the same lockstep batch.
  std::uint64_t group_key = 0;
  /// Trace sampling period [s]; 0 = no trace.
  double trace_period_s = 0.0;
  std::promise<SessionOutcome> promise;
};

struct QueueParams {
  std::size_t workers = 1;
  std::size_t max_batch = 16;
};

class QueryQueue {
 public:
  using Params = QueueParams;

  explicit QueryQueue(Params params = {});
  ~QueryQueue();

  QueryQueue(const QueryQueue&) = delete;
  QueryQueue& operator=(const QueryQueue&) = delete;

  /// Enqueue a job; the returned future resolves when its batch completes
  /// (or with the exception its run produced).
  [[nodiscard]] std::future<SessionOutcome> submit(SessionJob job);

  /// Block until every submitted job has been answered.
  void wait_idle();

  /// Drain remaining jobs, then join the workers.  Idempotent; the
  /// destructor calls it.
  void stop();

  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] std::size_t batches() const { return batches_.value(); }
  [[nodiscard]] std::size_t batched_sessions() const {
    return batched_sessions_.value();
  }
  [[nodiscard]] std::size_t max_batch_seen() const {
    return max_batch_seen_.lifetime();
  }
  [[nodiscard]] std::size_t solo_fallbacks() const {
    return solo_fallbacks_.value();
  }

 private:
  void worker_loop();
  /// Runs `jobs` through one BatchRunner that builds each slice's sessions
  /// when the slice starts and solves through the worker's `factors`.
  void run_batch(std::vector<SessionJob>& jobs, FactorCache& factors);
  static void run_solo(SessionJob& job);

  Params params_;
  mutable std::mutex mu_;
  std::condition_variable cv_;       ///< queue state changed
  std::condition_variable idle_cv_;  ///< a batch finished
  std::deque<SessionJob> pending_;
  std::size_t active_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;

  // Per-instance obs counters: lock-free reads (the accessors above used
  // to take mu_ just to read a size_t).
  obs::Counter batches_;
  obs::Counter batched_sessions_;
  obs::MaxTracker max_batch_seen_;
  obs::Counter solo_fallbacks_;
};

}  // namespace liquid3d
