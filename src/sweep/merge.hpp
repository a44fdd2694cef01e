// merge.hpp — fold N shard journals back into one report set.
//
// The merge is deterministic by construction: results key on the cell's
// grid index from the plan, never on which shard ran it, in which order the
// journals are listed, or how many times a resumed worker re-journaled a
// cell.  Because cell seeds are position-independent and every result
// round-trips through %.17g CSV bit-exactly, the merged summaries compare
// == field-by-field against a single-process ExperimentSuite::run of the
// same grid — the contract tests/test_sweep.cpp and the CI smoke job lock
// in byte-for-byte on the exported reports.
//
// Integrity checks (all throw ConfigError in the default strict mode):
//   * a cell journaled under an index the plan does not contain;
//   * duplicate entries whose payloads differ (two workers that disagreed —
//     a broken determinism assumption, never silently resolved);
//   * cells missing from every journal (the sweep is incomplete);
//   * cells journaled as FAILED (their solves exhausted the worker's
//     retry ladder).
//
// Degraded mode (allow_partial): FAILED and missing cells become rows of a
// failure manifest instead of errors, and their summary slots hold labeled
// placeholder results; every completed cell still merges to the identical
// bytes strict mode would produce.  An ok record always beats a FAILED
// record for the same cell — a retried shard that eventually succeeded
// wins over an earlier shard that gave up.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "sweep/journal.hpp"
#include "sweep/plan.hpp"

namespace liquid3d {

struct SweepMergeStats {
  std::size_t cells = 0;       ///< grid cells merged
  std::size_t entries = 0;     ///< journal entries consumed
  std::size_t duplicates = 0;  ///< identical re-journaled entries dropped
  std::size_t failed = 0;      ///< cells journaled FAILED (partial mode)
  std::size_t missing = 0;     ///< cells in no journal (partial mode)
};

struct SweepMergeOptions {
  /// Degrade instead of throwing on FAILED/missing cells; see the file
  /// comment.  Off by default: a complete sweep merges byte-identically
  /// whether or not this is set.
  bool allow_partial = false;
};

/// One row of the degraded merge's failure manifest.
struct SweepFailure {
  std::size_t cell = 0;
  std::string scenario;
  std::string workload;
  std::string error;          ///< journal error text, or "missing …"
  std::size_t attempts = 0;   ///< ladder attempts (0 for missing cells)
};

/// Merge journal entries (already loaded, any order) against `plan` — the
/// full-grid cell file written by the planner.  Returns per-scenario
/// summaries in plan-grid order, exactly as ExperimentSuite::run would.
/// With options.allow_partial, `manifest` (when non-null) receives the
/// failed/missing cells in grid order.
[[nodiscard]] std::vector<PolicySummary> merge_sweep_entries(
    const SweepCellFile& plan, const std::vector<JournalEntry>& entries,
    SweepMergeStats* stats = nullptr, const SweepMergeOptions& options = {},
    std::vector<SweepFailure>* manifest = nullptr);

/// Convenience: load `journal_paths` (order-insensitive) and merge against
/// the plan file at `plan_path`.
[[nodiscard]] std::vector<PolicySummary> merge_sweep_journals(
    const std::string& plan_path,
    const std::vector<std::string>& journal_paths,
    SweepMergeStats* stats = nullptr, const SweepMergeOptions& options = {},
    std::vector<SweepFailure>* manifest = nullptr);

/// Write the manifest as CSV (`cell,scenario,workload,error,attempts`).
void write_failure_manifest_csv(std::ostream& out,
                                const std::vector<SweepFailure>& manifest);

}  // namespace liquid3d
