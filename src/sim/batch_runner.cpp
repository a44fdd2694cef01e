#include "sim/batch_runner.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <utility>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace liquid3d {

namespace {

// Lockstep compatibility: identical system matrix for every substep size
// (topology fingerprint) and an identical tick structure (sampling
// interval in the exact millisecond domain + substep count).  Grouping
// needs nothing init() computes: the fingerprint is fixed at construction.
using GroupKey = std::tuple<std::uint64_t, std::int64_t, std::size_t>;

GroupKey group_key(const SimulationSession& s) {
  return {s.thermal().topology_fingerprint(),
          s.config().sampling_interval.as_ms(), s.substep_count()};
}

/// Run one lockstep group to completion, each substep one round of
/// `cache`'s lookups.  Sessions may have different durations: finished
/// members drop out of the lockstep set and the rest keep sharing a
/// (smaller) one.
void run_group(const std::vector<SimulationSession*>& members, FactorCache& cache) {
  static obs::Histogram& step_h =
      obs::Registry::global().histogram("liquid3d_batch_step_seconds");
  std::vector<SimulationSession*> active;
  std::vector<ThermalModel3D*> models;
  for (;;) {
    active.clear();
    models.clear();
    for (SimulationSession* s : members) {
      if (s->done()) continue;
      active.push_back(s);
      models.push_back(&s->thermal());
    }
    if (active.empty()) return;
    for (SimulationSession* s : active) s->begin_tick();
    const double sub_dt = active.front()->substep_dt();
    const std::size_t substeps = active.front()->substep_count();
    for (std::size_t sub = 0; sub < substeps; ++sub) {
      obs::ScopedTimer t(step_h);
      cache.begin_round();
      ThermalModel3D::step_lockstep(models, sub_dt);
    }
    for (SimulationSession* s : active) s->finish_tick();
  }
}

}  // namespace

std::size_t BatchRunner::add(SimulationConfig cfg, OnBuild on_build) {
  cells_.push_back({std::move(cfg), std::move(on_build)});
  return cells_.size() - 1;
}

std::vector<SimulationResult> BatchRunner::run() {
  FactorCache cache(kSliceSessions, 1);
  return run(cache);
}

std::vector<SimulationResult> BatchRunner::run(FactorCache& cache) {
  LIQUID3D_REQUIRE(!cells_.empty(), "batch runner has no sessions");

  // Batch observability: how often lockstep grouping fires and how wide
  // the groups are is the whole economics of the shared-factor path (out
  // of band — counters/timers only).
  static obs::Counter& groups_c =
      obs::Registry::global().counter("liquid3d_batch_groups_total");
  static obs::Histogram& group_size_h =
      obs::Registry::global().histogram("liquid3d_batch_group_sessions");

  std::vector<SimulationResult> results;
  results.reserve(cells_.size());
  std::set<GroupKey> keys;
  for (std::size_t begin = 0; begin < cells_.size(); begin += kSliceSessions) {
    const std::size_t end = std::min(cells_.size(), begin + kSliceSessions);
    std::vector<std::unique_ptr<SimulationSession>> slice;
    slice.reserve(end - begin);
    std::map<GroupKey, std::vector<SimulationSession*>> groups;
    for (std::size_t i = begin; i < end; ++i) {
      auto& s = slice.emplace_back(std::make_unique<SimulationSession>(cells_[i].cfg));
      if (cells_[i].on_build) cells_[i].on_build(*s);
      s->thermal().use_factor_cache(&cache);
      groups[group_key(*s)].push_back(s.get());
      keys.insert(group_key(*s));
    }

    // The warm start is a per-session steady solve, identical to the
    // serial path; sessions of a group start at one key, so the first
    // factorizes it and the rest find it in the cache.
    cache.begin_round();
    for (const auto& s : slice) s->init();

    groups_c.add(groups.size());
    if (obs::enabled()) {
      for (const auto& [key, members] : groups) {
        group_size_h.record_always(static_cast<double>(members.size()));
      }
    }
    for (const auto& [key, members] : groups) run_group(members, cache);
    for (const auto& s : slice) results.push_back(s->result());
  }
  group_count_ = keys.size();
  return results;
}

std::vector<SimulationResult> BatchRunner::run_sliced(
    std::span<const SimulationConfig> cells, ThreadPool& pool) {
  std::vector<SimulationResult> results(cells.size());
  const std::size_t slices = (cells.size() + kSliceSessions - 1) / kSliceSessions;
  std::atomic<std::size_t> next{0};
  // One task per worker, each pulling slices until none is left, so each
  // worker's factors carry over from one of its slices to the next and are
  // freed when the run ends.  The cache keeps one factor between rounds:
  // keeping four held four bands per worker where private slots had held
  // two, and raised the paper grid's peak RSS by a quarter
  // (docs/performance.md).
  const std::size_t workers = std::min(pool.thread_count(), slices);
  pool.parallel_for(0, workers, [&](std::size_t) {
    FactorCache cache(kSliceSessions, 1);
    for (std::size_t slice = next++; slice < slices; slice = next++) {
      const std::size_t begin = slice * kSliceSessions;
      const std::size_t end = std::min(cells.size(), begin + kSliceSessions);
      BatchRunner runner;
      for (std::size_t i = begin; i < end; ++i) runner.add(cells[i]);
      std::vector<SimulationResult> slice_results = runner.run(cache);
      std::move(slice_results.begin(), slice_results.end(),
                results.begin() + static_cast<std::ptrdiff_t>(begin));
    }
  });
  return results;
}

}  // namespace liquid3d
