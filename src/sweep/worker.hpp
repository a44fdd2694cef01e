// worker.hpp — run one shard of a distributed sweep, checkpointing every
// completed cell.
//
// The worker reconstructs the shard's ExperimentSuite from the shard file's
// suite metadata (so make_config — characterization artifacts, cell seeds,
// scenario binding — is bit-for-bit the single-process path), skips cells
// already present in the journal, and runs the rest in chunks.  Each chunk
// goes through BatchRunner::run_sliced on the shard's `worker_threads`
// pool, so compatible cells within a slice share thermal factorizations in
// lockstep, bit-identically to serial runs.  After a chunk completes, each
// cell's result is appended to the journal (fsync per cell), so the
// checkpoint granularity is `batch_limit` cells: a SIGKILL costs at most
// one chunk of recomputation and never corrupts the journal.
//
// Failure containment: a SolverError anywhere in a cell's solve is a
// per-cell outcome, never a shard-killing exception.  The failing cell is
// evicted from its lockstep group (siblings keep their shared
// factorization semantics — on a SolverError in any slice the chunk re-runs
// solo, which is bit-identical by the locked batch==solo contract) and
// retried solo, as configured, up to `max_cell_attempts` attempts in all
// (a fault that clears — an injected one, a lost resource — passes on a
// later attempt).  A cell that exhausts `max_cell_attempts` becomes
// a FAILED journal record carrying the error text and the attempt count;
// ConfigError/LogicError still propagate (they are not numerical outcomes
// and retrying cannot help).
#pragma once

#include <cstddef>
#include <string>

#include "sweep/journal.hpp"
#include "sweep/plan.hpp"

namespace liquid3d {

struct SweepWorkerOptions {
  /// Cells per lockstep chunk (checkpoint granularity).  1 = journal after
  /// every single cell; larger values trade resume granularity for more
  /// factorization sharing.
  std::size_t batch_limit = 8;
  /// Stop after journaling this many new cells (the shard is then left
  /// partially complete).  Drives deterministic kill/resume tests and the
  /// CI smoke job; production workers leave it unlimited.
  std::size_t max_new_cells = static_cast<std::size_t>(-1);
  /// Threads the chunks' lockstep slices run on, one pool per shard (0 =
  /// hardware concurrency).
  std::size_t worker_threads = 1;
  /// Solve attempts per cell before it is journaled as FAILED.
  std::size_t max_cell_attempts = 3;
};

struct SweepWorkerStats {
  std::size_t total_cells = 0;    ///< cells in the shard
  std::size_t already_done = 0;   ///< journaled before this run (resume)
  std::size_t completed = 0;      ///< newly run and journaled by this run
  std::size_t failed = 0;         ///< newly journaled as FAILED by this run
  std::size_t remaining = 0;      ///< left undone (max_new_cells cutoff)
};

/// Where a worker writes its JSONL metrics heartbeat: one line at chunk
/// start and one per completed chunk, next to the journal, so a
/// supervisor (or an operator's tail -f) can see liveness + throughput
/// without parsing the journal itself.  See docs/observability.md.
[[nodiscard]] std::string sweep_metrics_path(const std::string& journal_path);

/// Run (or resume) `shard` against the journal at `journal_path`.
/// Unknown workload names or scenarios that fail to bind throw ConfigError
/// naming the cell.  Safe to call again after a crash or cutoff: journaled
/// cells (completed or FAILED) are never recomputed.  SolverError never
/// escapes — cell-scoped numerical failures become FAILED journal records
/// after the retry ladder runs dry.
SweepWorkerStats run_sweep_shard(const SweepCellFile& shard,
                                 const std::string& journal_path,
                                 const SweepWorkerOptions& options = {});

}  // namespace liquid3d
