// experiment.hpp — the evaluation grid of Sec. V.
//
// Figures 6, 7, and 8 all run the same grid: every scenario (policy x
// cooling cell) over the eight Table II workloads, on the 2- (and for some
// plots 4-) layer system.  This helper runs the grid once, sharing one
// characterization per system through a CharacterizationCache, and exposes
// per-scenario aggregates (mean and max over workloads) plus the LB-on-air
// energy normalization the paper's plots use.
//
// Cells are expressed as ScenarioSpec values (sim/scenario.hpp); the legacy
// PolicyConfig pair survives as a convenience adapter.  The cells run as
// BatchRunner slices on a thread pool (BatchRunner::run_sliced): each
// worker co-advances a few consecutive cells — one scenario over
// neighbouring workloads — in lockstep, so cells at an equal operator
// share a factor and a triangular sweep.  Results are bit-identical to a
// serial sweep of solo sessions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/characterization_cache.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"

namespace liquid3d {

/// One policy/cooling configuration in the evaluation (legacy cell id).
struct PolicyConfig {
  Policy policy;
  CoolingMode cooling;
};

/// The seven bars of Figs. 6-7, in plot order.
[[nodiscard]] std::vector<PolicyConfig> paper_policy_grid();

/// The sweep worker's execution paths (sweep/worker.hpp).  ExperimentSuite
/// ignores SuiteConfig::execution and runs every grid as described above;
/// that field stays only because the end-to-end benchmark (e2e_bench) sets
/// it, and goes with the next change to that benchmark.
enum class SuiteExecution {
  kThreadPool,  ///< one session per worker thread
  kBatched,     ///< lockstep BatchRunner
};

struct SuiteConfig {
  std::size_t layer_pairs = 1;
  SimTime duration = SimTime::from_s(60);
  std::uint64_t seed = 7;
  bool dpm_enabled = true;
  /// Worker threads the cells' lockstep slices run on (0 = hardware
  /// concurrency).  Every cell is an independent session (own thermal
  /// model, own RNG stream), so results are bit-identical to a serial run.
  std::size_t worker_threads = 0;
  /// Ignored by ExperimentSuite (see SuiteExecution).
  SuiteExecution execution = SuiteExecution::kThreadPool;
  /// Base template applied to every run (thermal/power/etc. parameters).
  SimulationConfig base{};
  /// Stack specs resolvable by name from a scenario's `stack` axis (e.g.
  /// specs a sweep plan embedded in its `#suite` metadata); consulted before
  /// presets and file paths.
  std::vector<StackSpec> stacks{};
};

/// Results of one scenario over all workloads.
struct PolicySummary {
  std::string label;
  std::vector<SimulationResult> per_workload;

  [[nodiscard]] double mean_hotspot_percent() const;
  [[nodiscard]] double max_hotspot_percent() const;
  [[nodiscard]] double mean_above_target_percent() const;
  [[nodiscard]] double mean_gradient_percent() const;
  [[nodiscard]] double mean_cycles_per_1000() const;
  [[nodiscard]] double total_chip_energy() const;
  [[nodiscard]] double total_pump_energy() const;
  [[nodiscard]] double total_throughput() const;
};

/// Uniform vs. valve-network delivery on one skewed workload, at equal
/// total delivered flow (same pump, same LUT, same schedule skew — only the
/// per-cavity distribution differs).
struct FlowComparisonResult {
  std::string scenario;
  SimulationResult uniform;  ///< valves absent (the paper's equal split)
  SimulationResult valved;   ///< valve-network per-cavity control
};

class ExperimentSuite {
 public:
  explicit ExperimentSuite(SuiteConfig cfg);

  /// Run the given scenarios over the given workloads.
  [[nodiscard]] std::vector<PolicySummary> run(
      const std::vector<ScenarioSpec>& scenarios,
      const std::vector<BenchmarkSpec>& workloads);
  /// Legacy adapter: policy/cooling pairs become unnamed scenarios.
  [[nodiscard]] std::vector<PolicySummary> run(
      const std::vector<PolicyConfig>& policies,
      const std::vector<BenchmarkSpec>& workloads);

  [[nodiscard]] std::vector<PolicySummary> run_paper_grid() {
    return run(paper_scenario_grid(), table2_benchmarks());
  }

  /// Build one concrete cell: the scenario bound to the suite's base
  /// config, with a deterministic per-cell seed (cell_seed) and the shared
  /// characterization artifacts attached.
  [[nodiscard]] SimulationConfig make_config(const ScenarioSpec& scenario,
                                             const BenchmarkSpec& workload);
  [[nodiscard]] SimulationConfig make_config(PolicyConfig policy,
                                             const BenchmarkSpec& workload);

  /// Run one skewed workload twice — uniform delivery vs. valve-network
  /// per-cavity control — under the given liquid cooling mode.  Both cells
  /// share the characterization, seed, and skew, so the comparison isolates
  /// the delivery model; with CoolingMode::kLiquidMax the total delivered
  /// flow (and pump energy) is identical by construction.
  [[nodiscard]] FlowComparisonResult run_flow_comparison(
      const SkewScenario& scenario, const BenchmarkSpec& workload,
      CoolingMode cooling = CoolingMode::kLiquidMax);

  /// The suite's characterization cache (shared across all cells).
  [[nodiscard]] CharacterizationCache& characterizations() { return cache_; }

 private:
  [[nodiscard]] std::vector<SimulationResult> run_cells(
      const std::vector<SimulationConfig>& cells);

  SuiteConfig cfg_;
  CharacterizationCache cache_;
};

/// Energy normalization baseline: the summary whose label matches
/// "LB (Air)"; throws ConfigError when absent.
[[nodiscard]] const PolicySummary& find_baseline(
    const std::vector<PolicySummary>& summaries, const std::string& label = "LB (Air)");

}  // namespace liquid3d
