#include "sim/batch_runner.hpp"

#include <cstdint>
#include <map>
#include <tuple>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace liquid3d {

std::size_t BatchRunner::add(SimulationConfig cfg) {
  return add(std::make_unique<SimulationSession>(std::move(cfg)));
}

std::size_t BatchRunner::add(std::unique_ptr<SimulationSession> session) {
  LIQUID3D_REQUIRE(session != nullptr, "cannot add a null session");
  sessions_.push_back(std::move(session));
  return sessions_.size() - 1;
}

std::vector<SimulationResult> BatchRunner::run() {
  LIQUID3D_REQUIRE(!sessions_.empty(), "batch runner has no sessions");

  // Lockstep compatibility: identical system matrix for every substep size
  // (topology fingerprint) and an identical tick structure (sampling
  // interval in the exact millisecond domain + substep count).  Grouping
  // needs nothing init() computes: the fingerprint is fixed at
  // construction.
  using GroupKey = std::tuple<std::uint64_t, std::int64_t, std::size_t>;
  std::map<GroupKey, std::vector<SimulationSession*>> groups;
  for (auto& s : sessions_) {
    groups[{s->thermal().topology_fingerprint(),
            s->config().sampling_interval.as_ms(), s->substep_count()}]
        .push_back(s.get());
  }
  group_count_ = groups.size();

  // Link each group's models so that a model whose LU slot does not fit
  // solves through a groupmate's slot that does instead of refactorizing
  // its own — from the warm start on, where every session of a group starts
  // at the same key.  The links live only for this run.
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

  // The warm start is a per-session steady solve, identical to the serial
  // path.
  for (auto& s : sessions_) s->init();

  // Batch observability: how often lockstep grouping fires and how wide
  // the groups are is the whole economics of the shared-factorization
  // path (out of band — counters/timers only).
  static obs::Counter& groups_c =
      obs::Registry::global().counter("liquid3d_batch_groups_total");
  static obs::Histogram& group_size_h =
      obs::Registry::global().histogram("liquid3d_batch_group_sessions");
  static obs::Histogram& step_h =
      obs::Registry::global().histogram("liquid3d_batch_step_seconds");
  groups_c.add(groups.size());
  if (obs::enabled()) {
    for (const auto& [key, members] : groups) {
      group_size_h.record_always(static_cast<double>(members.size()));
    }
  }

  for (auto& [key, members] : groups) {
    // Sessions may have different durations: finished members drop out of
    // the lockstep set and the rest keep sharing a (smaller) batch.
    for (;;) {
      active_.clear();
      for (SimulationSession* s : members) {
        if (!s->done()) active_.push_back(s);
      }
      if (active_.empty()) break;
      for (SimulationSession* s : active_) s->begin_tick();
      const double sub_dt = active_.front()->substep_dt();
      const std::size_t substeps = active_.front()->substep_count();
      for (std::size_t sub = 0; sub < substeps; ++sub) {
        obs::ScopedTimer t(step_h);
        for (SimulationSession* s : active_) s->thermal().step(sub_dt);
      }
      for (SimulationSession* s : active_) s->finish_tick();
    }
  }

  std::vector<SimulationResult> results;
  results.reserve(sessions_.size());
  for (const auto& s : sessions_) results.push_back(s->result());
  return results;
}

}  // namespace liquid3d
