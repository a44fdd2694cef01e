// plan.hpp — shard planner for distributed experiment sweeps.
//
// ExperimentSuite::run holds an entire policy x workload grid in one
// process; reproducing the paper's sweeps at production scale means
// spreading that grid over many worker processes (and machines).  The seam
// was prepared deliberately: cells are serializable ScenarioSpec CSV rows,
// cell seeds are position-independent, and results export through
// sim/report.hpp.  This header closes the loop:
//
//   SweepGridSpec  — the grid axes (scenarios x workload names) plus the
//                    suite-level parameters every cell shares, in exactly
//                    the serializable subset a worker needs to reconstruct
//                    ExperimentSuite::make_config bit-for-bit;
//   SweepCell      — one cell with its canonical grid position (the merge
//                    key; the seed does NOT depend on it);
//   plan_sweep     — expand the grid and partition the cells into K shards,
//                    round-robin or cost-weighted (LPT over the PR 4 solver
//                    cost model: per-cell grid size, stack depth, backend);
//   write/read     — shard files: '#'-prefixed suite metadata, then one
//                    RFC-4180 CSV row per cell (scenario columns + workload).
//
// A shard file is self-contained: `sweep_worker run` needs nothing else.
// The plan file is simply the shard schema holding ALL cells in grid order;
// the merge reads it to recover scenario/workload order and labels.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/scenario.hpp"

namespace liquid3d {

/// The serializable identity of a sweep: grid axes + shared suite knobs.
/// Anything else in SuiteConfig::base (custom thermal constants, phases...)
/// deliberately does not ship — a sweep that needs those runs in-process.
struct SweepGridSpec {
  std::vector<ScenarioSpec> scenarios;
  /// Table II workload names, resolved through find_benchmark at run time.
  std::vector<std::string> workloads;
  std::size_t layer_pairs = 1;
  SimTime duration = SimTime::from_s(60);
  std::uint64_t seed = 7;
  bool dpm_enabled = true;
  /// Thermal grid override (0 = ThermalModelParams defaults).  Shipped so
  /// coarse-grid smoke sweeps reproduce bit-exactly across processes.
  std::size_t grid_rows = 0;
  std::size_t grid_cols = 0;
  /// Stack specs referenced by scenarios' `stack` axes, embedded so workers
  /// rebuild identical geometry with no access to the original stack files.
  /// Serialized as `#suite stack=` tokens (encode_stack_spec); populated
  /// from file-path axes by resolve_grid_stacks (presets need no embedding).
  std::vector<StackSpec> stacks;

  [[nodiscard]] std::size_t cell_count() const {
    return scenarios.size() * workloads.size();
  }
};

/// One grid cell.  `index` is the scenario-major position
/// (scenario_idx * workloads.size() + workload_idx) — the journal/merge
/// key.  Results never depend on it: cell_seed mixes identity only.
struct SweepCell {
  std::size_t index = 0;
  ScenarioSpec scenario;
  std::string workload;
};

enum class ShardStrategy {
  kRoundRobin,    ///< cell i -> shard i % K
  kCostWeighted,  ///< LPT greedy over estimate_cell_cost (balanced wall-clock)
};

[[nodiscard]] const char* to_string(ShardStrategy s);
[[nodiscard]] ShardStrategy shard_strategy_from_name(std::string_view s);

/// The SuiteConfig a worker (or the single-process reference run)
/// reconstructs from the grid spec.  Every field a shard file serializes
/// lands here; everything else keeps its default.
[[nodiscard]] SuiteConfig to_suite_config(const SweepGridSpec& grid);

/// Expand the grid into cells in canonical scenario-major order.
[[nodiscard]] std::vector<SweepCell> expand_grid(const SweepGridSpec& grid);

/// Resolve every scenario's `stack` axis and embed the specs the grid needs
/// to be self-contained: file-path axes are loaded (the axis string becomes
/// the spec's name) and appended to grid.stacks; presets and already
/// embedded names are left alone.  Throws ConfigError for an unresolvable
/// axis or a cooling mismatch — planning fails fast, not on a worker.
void resolve_grid_stacks(SweepGridSpec& grid);

/// Relative wall-clock cost of one cell under the solver cost model:
/// ticks x substeps x (n x (4b + 2b^2 / 200) + the fluid march's cavity
/// cells), the banded-LU step's flops per row at half-bandwidth b.
/// Deterministic and cheap (geometry only, no model build).
[[nodiscard]] double estimate_cell_cost(const SweepGridSpec& grid,
                                        const ScenarioSpec& scenario);

/// Partition `cells` into exactly `shard_count` shards (some possibly
/// empty).  Round-robin preserves grid interleaving; cost-weighted runs LPT
/// (longest-processing-time greedy) with deterministic tie-breaking, so the
/// same grid always shards the same way.
[[nodiscard]] std::vector<std::vector<SweepCell>> partition_cells(
    const SweepGridSpec& grid, std::vector<SweepCell> cells,
    std::size_t shard_count, ShardStrategy strategy);

// -- Shard/plan files ---------------------------------------------------------

/// Write suite metadata ('#' comment lines) + header + one row per cell.
void write_sweep_cells(std::ostream& out, const SweepGridSpec& grid,
                       const std::vector<SweepCell>& cells);

/// A parsed shard (or plan) file: the shared suite metadata, the cells, and
/// the grid axes reconstructed from the cells in index order.  For a plan
/// file (all cells) the reconstruction recovers the full grid; for a shard
/// it covers just the shard's slice — enough for a worker.
struct SweepCellFile {
  SweepGridSpec grid;  ///< scenarios/workloads in order of first appearance
  std::vector<SweepCell> cells;
};

/// Inverse of write_sweep_cells.  Malformed input throws ConfigError with
/// `source` and the 1-based row number, plus the offending column for
/// scenario fields.
[[nodiscard]] SweepCellFile read_sweep_cells(std::istream& in,
                                             const std::string& source);

/// Plan a sweep and write `<dir>/<prefix>-plan.csv` plus
/// `<dir>/<prefix>-shard-NNN.csv` for each shard.  Returns the shard file
/// paths (plan path excluded), in shard order.
[[nodiscard]] std::vector<std::string> write_sweep_plan(
    const SweepGridSpec& grid, std::size_t shard_count, ShardStrategy strategy,
    const std::string& dir, const std::string& prefix = "sweep");

/// Read one shard/plan file from disk; throws ConfigError when unreadable.
[[nodiscard]] SweepCellFile read_sweep_file(const std::string& path);

}  // namespace liquid3d
