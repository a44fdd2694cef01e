#include "sweep/worker.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <unordered_set>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "sim/batch_runner.hpp"
#include "sim/simulator.hpp"
#include "workload/benchmarks.hpp"

namespace liquid3d {

std::string sweep_metrics_path(const std::string& journal_path) {
  return journal_path + ".metrics.jsonl";
}

namespace {

/// Appends one JSONL heartbeat line per chunk boundary next to the
/// journal.  Advisory telemetry: plain buffered appends (no fsync — a
/// torn final line costs nothing; the journal holds the durable state),
/// and disabled entirely by the obs kill switch.
class MetricsHeartbeat {
 public:
  MetricsHeartbeat(const std::string& journal_path,
                   const SweepWorkerStats& stats)
      : stats_(stats), enabled_(obs::enabled()) {
    if (enabled_) {
      out_.open(sweep_metrics_path(journal_path), std::ios::app);
      enabled_ = out_.is_open();
    }
  }

  void chunk_start(std::size_t chunk, std::size_t cells) {
    chunk_began_ = std::chrono::steady_clock::now();
    line("chunk_start", chunk, cells, /*with_rate=*/false, 0.0);
  }

  void chunk_end(std::size_t chunk, std::size_t cells) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      chunk_began_)
            .count();
    line("chunk_end", chunk, cells, /*with_rate=*/true, elapsed);
  }

 private:
  void line(const char* event, std::size_t chunk, std::size_t cells,
            bool with_rate, double elapsed_s) {
    if (!enabled_) return;
    const auto ts_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    char buf[256];
    if (with_rate) {
      const double rate =
          elapsed_s > 0.0 ? static_cast<double>(cells) / elapsed_s : 0.0;
      std::snprintf(buf, sizeof(buf),
                    "{\"ts_ms\":%lld,\"event\":\"%s\",\"chunk\":%zu,"
                    "\"cells\":%zu,\"completed\":%zu,\"failed\":%zu,"
                    "\"total\":%zu,\"elapsed_s\":%.3f,\"cells_per_s\":%.3f}\n",
                    static_cast<long long>(ts_ms), event, chunk, cells,
                    stats_.completed, stats_.failed, stats_.total_cells,
                    elapsed_s, rate);
    } else {
      std::snprintf(buf, sizeof(buf),
                    "{\"ts_ms\":%lld,\"event\":\"%s\",\"chunk\":%zu,"
                    "\"cells\":%zu,\"completed\":%zu,\"failed\":%zu,"
                    "\"total\":%zu}\n",
                    static_cast<long long>(ts_ms), event, chunk, cells,
                    stats_.completed, stats_.failed, stats_.total_cells);
    }
    out_ << buf;
    out_.flush();  // a supervisor tails this file for liveness
  }

  const SweepWorkerStats& stats_;
  bool enabled_;
  std::ofstream out_;
  std::chrono::steady_clock::time_point chunk_began_{};
};

/// What the worker knows about one pending cell while its chunk runs.
struct CellSlot {
  const SweepCell* cell = nullptr;
  BenchmarkSpec workload;
  bool ok = false;              ///< result is valid
  bool quarantined = false;     ///< needs the retry ladder
  SimulationResult result;
  std::string error;            ///< last failure (quarantined / FAILED)
  std::size_t attempts = 0;     ///< ladder attempts consumed
};

/// One rung of the retry ladder: the cell run solo, its config rebuilt
/// from the suite.
SimulationResult run_cell_attempt(ExperimentSuite& suite, const SweepCell& cell,
                                  const BenchmarkSpec& workload) {
  if (fault_injection::should_fail("worker.cell", cell.index)) {
    throw SolverError("injected worker.cell fault");
  }
  Simulator sim(suite.make_config(cell.scenario, workload));
  return sim.run();
}

/// Drive one quarantined cell up the ladder.  Returns with slot.ok set on
/// success; otherwise slot.error / slot.attempts describe the FAILED record
/// to journal.  Only SolverError is retried — anything else propagates.
void run_cell_quarantined(ExperimentSuite& suite, CellSlot& slot,
                          std::size_t max_attempts) {
  while (slot.attempts < max_attempts) {
    ++slot.attempts;
    try {
      slot.result =
          run_cell_attempt(suite, *slot.cell, slot.workload);
      slot.ok = true;
      return;
    } catch (const SolverError& e) {
      slot.error = e.what();
    }
  }
}

}  // namespace

SweepWorkerStats run_sweep_shard(const SweepCellFile& shard,
                                 const std::string& journal_path,
                                 const SweepWorkerOptions& options) {
  LIQUID3D_REQUIRE(options.batch_limit >= 1, "batch_limit must be >= 1");
  LIQUID3D_REQUIRE(options.max_cell_attempts >= 1,
                   "max_cell_attempts must be >= 1");

  SweepWorkerStats stats;
  stats.total_cells = shard.cells.size();

  // Resume: everything already journaled is done — completed results are
  // deterministic (recomputing reproduces the same bytes) and FAILED cells
  // already exhausted their ladder, so neither is retried.
  std::unordered_set<std::size_t> done;
  for (const JournalEntry& e : SweepJournal::load(journal_path)) {
    done.insert(e.cell);
  }

  std::vector<const SweepCell*> pending;
  for (const SweepCell& cell : shard.cells) {
    if (done.count(cell.index) != 0) {
      ++stats.already_done;
    } else {
      pending.push_back(&cell);
    }
  }
  const std::size_t budget = std::min(options.max_new_cells, pending.size());
  stats.remaining = pending.size() - budget;
  pending.resize(budget);

  ExperimentSuite suite(to_suite_config(shard.grid));
  SweepJournal journal(journal_path);

  // Fleet observability: chunk timings in the global registry plus a
  // JSONL heartbeat next to the journal (liveness before the first
  // journal append, throughput after every chunk).
  static obs::Counter& completed_c = obs::Registry::global().counter(
      "liquid3d_sweep_cells_completed_total");
  static obs::Counter& failed_c =
      obs::Registry::global().counter("liquid3d_sweep_cells_failed_total");
  static obs::Histogram& chunk_h =
      obs::Registry::global().histogram("liquid3d_sweep_chunk_seconds");
  MetricsHeartbeat heartbeat(journal_path, stats);
  std::size_t chunk_index = 0;

  for (std::size_t begin = 0; begin < pending.size();
       begin += options.batch_limit) {
    const std::size_t end =
        std::min(begin + options.batch_limit, pending.size());

    heartbeat.chunk_start(chunk_index, end - begin);
    obs::ScopedTimer chunk_timer(chunk_h);

    std::vector<CellSlot> slots(end - begin);

    // Phase 1: bind workloads and build the chunk's configs up front on
    // this thread (make_config fills the shared characterization cache),
    // exactly like ExperimentSuite::run.  A SolverError here (the
    // characterization itself solves steady states) quarantines the cell;
    // ConfigError still names the cell and escapes — retrying cannot fix a
    // malformed configuration.
    std::vector<SimulationConfig> configs;
    std::vector<std::size_t> config_slot;  // slots index per config
    configs.reserve(slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
      CellSlot& slot = slots[i];
      slot.cell = pending[begin + i];
      const std::optional<BenchmarkSpec> workload =
          find_benchmark(slot.cell->workload);
      LIQUID3D_REQUIRE(workload.has_value(),
                       "cell " + std::to_string(slot.cell->index) +
                           ": unknown workload '" + slot.cell->workload + "'");
      slot.workload = *workload;
      if (fault_injection::should_fail("worker.cell", slot.cell->index)) {
        slot.quarantined = true;
        slot.error = "injected worker.cell fault";
        continue;
      }
      try {
        configs.push_back(suite.make_config(slot.cell->scenario, *workload));
        config_slot.push_back(i);
      } catch (const SolverError& e) {
        slot.quarantined = true;
        slot.error = e.what();
        slot.attempts = 1;  // the as-configured rung already ran and failed
      } catch (const ConfigError& e) {
        throw ConfigError("cell " + std::to_string(slot.cell->index) + " ('" +
                          slot.cell->scenario.name + "'): " + e.what());
      }
    }

    // Phase 2: run the buildable cells of the chunk.  When quarantine
    // already swallowed every cell (small chunks, aggressive faults) there
    // is nothing to run — BatchRunner rejects an empty session list.
    if (configs.empty()) {
      // fall through to the retry ladder
    } else if (options.execution == SuiteExecution::kBatched) {
      // A SolverError inside a lockstep batch aborts the whole group with
      // no per-cell attribution, so on failure (or an injected
      // worker.chunk fault) the chunk falls back to solo re-runs — which
      // are bit-identical to the batch by the locked batch==solo contract,
      // so surviving cells' bytes cannot change.
      bool batch_ok = false;
      if (!fault_injection::should_fail("worker.chunk")) {
        try {
          BatchRunner batch;
          for (SimulationConfig& cfg : configs) batch.add(std::move(cfg));
          std::vector<SimulationResult> results = batch.run();
          for (std::size_t c = 0; c < results.size(); ++c) {
            slots[config_slot[c]].result = std::move(results[c]);
            slots[config_slot[c]].ok = true;
          }
          batch_ok = true;
        } catch (const SolverError&) {
          // fall through to the solo re-run below
        }
      }
      if (!batch_ok) {
        for (const std::size_t i : config_slot) {
          CellSlot& slot = slots[i];
          ++slot.attempts;  // this solo run is the cell's as-configured rung
          try {
            slot.result = run_cell_attempt(suite, *slot.cell, slot.workload);
            slot.ok = true;
          } catch (const SolverError& e) {
            slot.quarantined = true;
            slot.error = e.what();
          }
        }
      }
    } else {
      ThreadPool pool(options.worker_threads == 0
                          ? ThreadPool::default_concurrency()
                          : options.worker_threads);
      pool.parallel_for(0, configs.size(), [&](std::size_t c) {
        CellSlot& slot = slots[config_slot[c]];
        try {
          Simulator sim(configs[c]);
          slot.result = sim.run();
          slot.ok = true;
        } catch (const SolverError& e) {
          // Per-cell containment; non-solver exceptions propagate through
          // the pool's first-exception rethrow.
          slot.quarantined = true;
          slot.error = e.what();
          slot.attempts = 1;  // this pool run was the as-configured rung
        }
      });
    }

    // Phase 3: retry ladder for everything quarantined above, serial
    // (a quarantined cell is pathological — keep it away from siblings).
    for (CellSlot& slot : slots) {
      if (slot.ok || !slot.quarantined) continue;
      run_cell_quarantined(suite, slot, options.max_cell_attempts);
    }

    // Phase 4: checkpoint the chunk in shard order, fsync per cell.
    // Completed cells write the same bytes as a fault-free run; exhausted
    // cells write FAILED records.
    for (CellSlot& slot : slots) {
      JournalEntry entry;
      entry.cell = slot.cell->index;
      if (slot.ok) {
        entry.result = std::move(slot.result);
        ++stats.completed;
        completed_c.add();
      } else {
        entry.failed = true;
        entry.scenario = slot.cell->scenario.name;
        entry.workload = slot.cell->workload;
        entry.error = slot.error;
        entry.attempts = slot.attempts;
        ++stats.failed;
        failed_c.add();
      }
      journal.append(entry);
    }

    chunk_timer.stop();
    heartbeat.chunk_end(chunk_index, end - begin);
    ++chunk_index;
  }
  return stats;
}

}  // namespace liquid3d
