// service.hpp — ThermalService: the long-lived thermal oracle.
//
// A sweep answers "run the whole grid"; a service answers "what would this
// configuration do, right now?" over and over, for schedulers, DSE loops,
// and operators.  The win over spawning a SimulationSession per question is
// warm state shared across queries:
//
//   * a pool of constructed thermal models per (system, flow vector); one
//     that answered a full query keeps its fitted LU factor, so a warm full
//     steady query is one right-hand side and one triangular solve;
//   * the process-wide CharacterizationCache (see
//     sim/characterization_cache.hpp) feeding every session it spawns;
//   * a cache of reduced-order steady models (serve/rom.hpp) keyed on
//     (system, flow vector), so repeat steady queries skip the solver
//     entirely — a superposition of stored influence solutions,
//     microseconds instead of a factorization;
//   * an asynchronous queue (serve/queue.hpp) that groups full-fidelity
//     what-if/replay queries by topology and runs them through BatchRunner
//     lockstep, sharing factorizations across concurrent questions.
//
// Steady answers carry an explicit error contract: the ROM result is used
// only when its residual-based estimate stays within the query's bound;
// otherwise the service transparently falls back to the full steady solver
// and the answer is exact (to solver tolerance).  Both caches are one
// SharedCache each (common/shared_cache.hpp): one lock, builds outside it,
// bounded LRU over settled entries, and an evicted ROM simply rebuilds on
// the next miss.  Both are keyed by one raw-bits identity built once per
// query (steady_key) from the ThermalModelParams field table, so a warm
// ROM answer is one lock and one map find and never builds a stack.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/shared_cache.hpp"
#include "obs/metrics.hpp"
#include "serve/query.hpp"
#include "serve/queue.hpp"
#include "serve/rom.hpp"

namespace liquid3d {

struct ServeParams {
  RomParams rom;
  /// Warm full-fidelity thermal models kept per (system, flow) key (LRU);
  /// each query sets its boundary references on the model.  One that
  /// answered a full query holds its LU band: ~1 MB at the default 2-layer
  /// grid, 339 MB at the 4-layer 100 um grid.
  std::size_t model_pool_capacity = 8;
  /// Reduced models kept per (system, flow) key (LRU).
  std::size_t rom_cache_capacity = 8;
  QueryQueue::Params queue;
};

class ThermalService {
 public:
  explicit ThermalService(ServeParams params = {});
  ~ThermalService();

  ThermalService(const ThermalService&) = delete;
  ThermalService& operator=(const ThermalService&) = delete;

  /// Steady T_max for a configuration at fixed powers and flow.
  /// Synchronous; thread-safe.  ROM path when the error estimate admits it,
  /// full solve otherwise (or when the query forces it).
  [[nodiscard]] SteadyAnswer steady(const SteadyQuery& query);

  /// Pre-build the ROM (and pooled model) a steady query would use, so the
  /// first real query is already warm.  Blocks until built.
  void warm(const SteadyQuery& query);

  /// Queue a full-fidelity scenario run; batched with compatible queries.
  [[nodiscard]] std::future<SessionOutcome> what_if(const WhatIfQuery& query);

  /// Queue a transient replay over a workload phase schedule.
  [[nodiscard]] std::future<SessionOutcome> replay(const ReplayQuery& query);

  /// Block until every queued session query has been answered.
  void wait_idle();

  [[nodiscard]] ServeStats stats() const;
  [[nodiscard]] const ServeParams& params() const { return params_; }

  /// The SimulationConfig a what-if query denotes (exposed so callers — the
  /// CLI's --verify mode, tests — can replay the identical cell through a
  /// solo SimulationSession and compare).  Throws ConfigError on unknown
  /// scenario or benchmark names.
  [[nodiscard]] static SimulationConfig session_config(const WhatIfQuery& query);

  /// The key a steady query's pooled model and ROM are cached under: the
  /// raw bits of the resolved stack spec, delivery mode and every thermal
  /// parameter but the two boundary references, plus the per-cavity flow
  /// vector.  The references enter neither the ROM nor the model's factor,
  /// so a reference override moves no key.  Exposed so tests can check
  /// identity coverage.
  [[nodiscard]] static std::string steady_key(const SteadyQuery& query);

  /// Batch-grouping key: stacks/grids that can share a lockstep group map to
  /// equal keys (conservative mirror of BatchRunner's compatibility check).
  [[nodiscard]] static std::uint64_t topology_key(const SimulationConfig& cfg);

 private:
  /// One pooled full-fidelity model; `mu` serializes solves on it.
  struct ModelEntry {
    ModelEntry(Stack3D stack, const ThermalModelParams& thermal)
        : model(std::move(stack), thermal) {}
    std::mutex mu;
    ThermalModel3D model;
  };

  struct ResolvedQuery;

  [[nodiscard]] std::shared_ptr<ModelEntry> model_for(const ResolvedQuery& resolved);
  [[nodiscard]] std::shared_ptr<const ReducedSteadyModel> rom_for(
      const SteadyQuery& query, const ResolvedQuery& resolved);
  [[nodiscard]] SteadyAnswer full_steady(const SteadyQuery& query,
                                         const ResolvedQuery& resolved);
  [[nodiscard]] std::future<SessionOutcome> submit_session(
      const WhatIfQuery& query, const std::vector<PhaseChange>& phases,
      double trace_period_s);

  ServeParams params_;

  // Per-instance obs counters (not in the global registry: each service
  // owns its own stats; the registry holds process-wide solver/batch
  // instruments).  Counter::add is the same one-relaxed-add the old
  // atomics did — these stay functional under the obs kill switch.
  obs::Counter steady_queries_;
  obs::Counter rom_hits_;
  obs::Counter rom_builds_;
  obs::Counter rom_fallbacks_;
  obs::Counter rom_evictions_;
  obs::Counter full_solves_;
  obs::Counter model_evictions_;
  obs::Counter session_queries_;

  /// Both keyed by steady_key; LRU-bounded by the ServeParams
  /// capacities, counting evictions into the counters above.
  SharedCache<ModelEntry> models_;
  SharedCache<const ReducedSteadyModel> roms_;

  QueryQueue queue_;
};

}  // namespace liquid3d
