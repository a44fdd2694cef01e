// characterization_cache.hpp — one shared home for the expensive offline
// characterization artifacts: the flow LUT (utilization x pump-setting
// steady-state map behind the variable-flow controller) and the TALB thermal
// weight table.
//
// Before this cache existed the same plumbing lived twice: static
// `Simulator::build_flow_lut` / `build_talb_weights` helpers (rebuilt per
// caller) and lazily-built members inside ExperimentSuite (shared only
// within one suite).  Both now funnel here.  Artifacts are keyed on the
// system parameters that determine them — stack geometry, delivery mode,
// thermal and power model parameters, the LUT target temperature, and the
// characterization worker count (worker count perturbs warm-start
// trajectories at the millikelvin level, so it is part of the identity) —
// never on the policy, workload, seed, or duration of the run that happens
// to trigger the build.
//
// Concurrency: each table is a SharedCache (common/shared_cache.hpp) —
// one lock, builds outside it.  A characterization build is many steady
// solves; a requester whose artifact is already cached never waits behind
// it.  Same-key requesters share one build (they block on its future and
// receive the same pointer), and a failed build erases its entry so the
// next requester retries instead of inheriting a poisoned future.  Lookups
// are rare — one per artifact when a suite cell or session is configured —
// so one lock serves.
#pragma once

#include <memory>
#include <string>

#include "common/shared_cache.hpp"
#include "control/flow_lut.hpp"
#include "control/talb_weights.hpp"
#include "sim/session.hpp"

namespace liquid3d {

class CharacterizationCache {
 public:
  /// Flow LUT for the configuration's system (built on miss; liquid
  /// configurations only).
  [[nodiscard]] std::shared_ptr<const FlowLut> flow_lut(
      const SimulationConfig& cfg);

  /// TALB weight table for the configuration's system (built on miss; the
  /// cooling type selects the liquid or air characterization harness).
  [[nodiscard]] std::shared_ptr<const TalbWeightTable> talb_weights(
      const SimulationConfig& cfg);

  /// Process-wide instance used by sessions whose config carries no
  /// pre-built artifacts.  Deterministic: a cached artifact is bit-identical
  /// to a freshly built one for the same key.
  [[nodiscard]] static CharacterizationCache& global();

  /// Entries across both tables, including builds still in flight.
  [[nodiscard]] std::size_t size() const;
  void clear();

  /// Cache keys (exposed for tests): every parameter that feeds the build.
  [[nodiscard]] static std::string flow_lut_key(const SimulationConfig& cfg);
  [[nodiscard]] static std::string talb_key(const SimulationConfig& cfg);

 private:
  SharedCache<const FlowLut> luts_;
  SharedCache<const TalbWeightTable> weights_;
};

}  // namespace liquid3d
