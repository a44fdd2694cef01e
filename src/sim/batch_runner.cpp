#include "sim/batch_runner.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <tuple>

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

/// Run one lockstep group to completion.  Sessions may have different
/// durations: finished members drop out of the lockstep set and the rest
/// keep sharing a (smaller) one.
void run_group(const std::vector<SimulationSession*>& members) {
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
      ThermalModel3D::step_lockstep(models, sub_dt);
    }
    for (SimulationSession* s : active) s->finish_tick();
  }
}

}  // namespace

std::size_t BatchRunner::add(SimulationConfig cfg) {
  return add(std::make_unique<SimulationSession>(std::move(cfg)));
}

std::size_t BatchRunner::add(std::unique_ptr<SimulationSession> session) {
  LIQUID3D_REQUIRE(session != nullptr, "cannot add a null session");
  sessions_.push_back(std::move(session));
  return sessions_.size() - 1;
}

std::vector<SimulationResult> BatchRunner::run() {
  FactorStorage storage;
  return run(storage);
}

std::vector<SimulationResult> BatchRunner::run(FactorStorage& storage) {
  LIQUID3D_REQUIRE(!sessions_.empty(), "batch runner has no sessions");

  // Batch observability: how often lockstep grouping fires and how wide
  // the groups are is the whole economics of the shared-factor path (out
  // of band — counters/timers only).
  static obs::Counter& groups_c =
      obs::Registry::global().counter("liquid3d_batch_groups_total");
  static obs::Histogram& group_size_h =
      obs::Registry::global().histogram("liquid3d_batch_group_sessions");

  std::set<GroupKey> keys;
  for (std::size_t begin = 0; begin < sessions_.size(); begin += kSliceSessions) {
    const std::span<const std::unique_ptr<SimulationSession>> slice(
        sessions_.data() + begin,
        std::min(kSliceSessions, sessions_.size() - begin));
    std::map<GroupKey, std::vector<SimulationSession*>> groups;
    for (const auto& s : slice) {
      groups[group_key(*s)].push_back(s.get());
      keys.insert(group_key(*s));
    }

    // Link each group's models so that a model whose LU slot does not fit
    // solves through a groupmate's slot that does instead of refactorizing
    // its own — from the warm start on, where every session of a group
    // starts at the same key.  The links live only for this slice.
    std::vector<std::vector<ThermalModel3D*>> peers;
    peers.reserve(groups.size());
    for (const auto& [key, members] : groups) {
      std::vector<ThermalModel3D*>& group = peers.emplace_back();
      for (SimulationSession* s : members) group.push_back(&s->thermal());
    }
    struct Unlink {
      std::vector<std::vector<ThermalModel3D*>>& peers;
      ~Unlink() {
        for (const auto& group : peers) {
          for (ThermalModel3D* m : group) m->share_factors_with({});
        }
      }
    } unlink{peers};
    for (const auto& group : peers) {
      for (ThermalModel3D* m : group) m->share_factors_with(group);
    }

    // The slice's models take the LU storage earlier slices left behind;
    // what none of them can use is freed.
    for (const auto& s : slice) {
      if (storage.empty()) break;
      s->thermal().adopt_factor_storage(storage.back());
      if (!storage.back()) storage.pop_back();
    }
    storage.clear();

    // The warm start is a per-session steady solve, identical to the
    // serial path.
    for (const auto& s : slice) s->init();

    groups_c.add(groups.size());
    if (obs::enabled()) {
      for (const auto& [key, members] : groups) {
        group_size_h.record_always(static_cast<double>(members.size()));
      }
    }
    for (const auto& [key, members] : groups) run_group(members);

    for (const auto& s : slice) {
      if (auto lu = s->thermal().release_factor_storage()) {
        storage.push_back(std::move(lu));
      }
    }
  }
  group_count_ = keys.size();

  std::vector<SimulationResult> results;
  results.reserve(sessions_.size());
  for (const auto& s : sessions_) results.push_back(s->result());
  return results;
}

std::vector<SimulationResult> BatchRunner::run_sliced(
    std::span<const SimulationConfig> cells, ThreadPool& pool) {
  std::vector<SimulationResult> results(cells.size());
  const std::size_t slices = (cells.size() + kSliceSessions - 1) / kSliceSessions;
  std::atomic<std::size_t> next{0};
  // One task per worker, each pulling slices until none is left, so each
  // worker's LU storage carries over from one of its slices to the next
  // and is freed when the run ends.
  const std::size_t workers = std::min(pool.thread_count(), slices);
  pool.parallel_for(0, workers, [&](std::size_t) {
    FactorStorage storage;
    for (std::size_t slice = next++; slice < slices; slice = next++) {
      const std::size_t begin = slice * kSliceSessions;
      const std::size_t end = std::min(cells.size(), begin + kSliceSessions);
      BatchRunner runner;
      for (std::size_t i = begin; i < end; ++i) runner.add(cells[i]);
      std::vector<SimulationResult> slice_results = runner.run(storage);
      std::move(slice_results.begin(), slice_results.end(),
                results.begin() + static_cast<std::ptrdiff_t>(begin));
    }
  });
  return results;
}

}  // namespace liquid3d
