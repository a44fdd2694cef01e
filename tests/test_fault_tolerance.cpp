// End-to-end failure containment: injected solver faults become FAILED
// journal records through the worker's quarantine ladder, survivors stay
// bit-identical to fault-free runs, and the degraded merge turns the
// failures into a manifest instead of an exception.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "sim/report.hpp"
#include "sweep/journal.hpp"
#include "sweep/merge.hpp"
#include "sweep/plan.hpp"
#include "sweep/worker.hpp"
#include "workload/benchmarks.hpp"

namespace liquid3d {
namespace {

/// Same tiny grid as test_sweep.cpp: 2 scenarios x 2 workloads, 2 s, coarse
/// thermal grid — cells 0..3.
SweepGridSpec tiny_grid() {
  SweepGridSpec grid;
  grid.scenarios = {ScenarioRegistry::global().at("lb-air"),
                    ScenarioRegistry::global().at("talb-var")};
  grid.workloads = {"gzip", "Web-med"};
  grid.duration = SimTime::from_s(2);
  grid.seed = 7;
  grid.grid_rows = 8;
  grid.grid_cols = 9;
  return grid;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/liquid3d_ft_" + name;
}

class FaultToleranceTest : public ::testing::Test {
 protected:
  void TearDown() override { fault_injection::disarm_all(); }

  static SweepCellFile full_shard(const SweepGridSpec& grid) {
    SweepCellFile shard;
    shard.grid = grid;
    shard.cells = expand_grid(grid);
    return shard;
  }

  static std::vector<PolicySummary> single_process(const SweepGridSpec& grid) {
    std::vector<BenchmarkSpec> workloads;
    for (const std::string& name : grid.workloads) {
      workloads.push_back(*find_benchmark(name));
    }
    ExperimentSuite suite(to_suite_config(grid));
    return suite.run(grid.scenarios, workloads);
  }

  /// results_identical() against the fault-free reference, restricted to
  /// the cells NOT in `excluded` — the (b) clause of the acceptance
  /// criterion.
  static void expect_survivors_identical(
      const SweepGridSpec& grid, const std::vector<PolicySummary>& merged,
      const std::vector<std::size_t>& excluded) {
    const std::vector<PolicySummary> reference = single_process(grid);
    ASSERT_EQ(merged.size(), reference.size());
    const std::size_t workloads = grid.workloads.size();
    for (std::size_t s = 0; s < reference.size(); ++s) {
      for (std::size_t w = 0; w < workloads; ++w) {
        const std::size_t cell = s * workloads + w;
        if (std::find(excluded.begin(), excluded.end(), cell) !=
            excluded.end()) {
          continue;
        }
        EXPECT_TRUE(results_identical(reference[s].per_workload[w],
                                      merged[s].per_workload[w]))
            << "cell " << cell << " diverged from the fault-free reference";
      }
    }
  }
};

TEST_F(FaultToleranceTest, InjectedCellFaultsBecomeFailedRecords) {
  const SweepGridSpec grid = tiny_grid();
  const std::string journal = temp_path("quarantine_batched.csv");
  std::remove(journal.c_str());

  fault_injection::arm("worker.cell:key=1;worker.cell:key=2");
  const SweepWorkerStats stats = run_sweep_shard(full_shard(grid), journal);
  fault_injection::disarm_all();

  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.remaining, 0u);

  std::size_t failed_records = 0;
  for (const JournalEntry& e : SweepJournal::load(journal)) {
    if (!e.failed) continue;
    ++failed_records;
    EXPECT_TRUE(e.cell == 1 || e.cell == 2);
    EXPECT_EQ(e.attempts, 3u);  // the full default ladder ran dry
    EXPECT_NE(e.error.find("injected worker.cell fault"), std::string::npos);
    EXPECT_FALSE(e.scenario.empty());
    EXPECT_FALSE(e.workload.empty());
  }
  EXPECT_EQ(failed_records, 2u);

  // Degraded merge: manifest names exactly the injected cells, and the
  // surviving cells are bit-identical to the fault-free reference.
  SweepMergeStats merge_stats;
  std::vector<SweepFailure> manifest;
  SweepMergeOptions partial;
  partial.allow_partial = true;
  const std::vector<PolicySummary> merged =
      merge_sweep_entries(full_shard(grid), SweepJournal::load(journal),
                          &merge_stats, partial, &manifest);
  EXPECT_EQ(merge_stats.failed, 2u);
  EXPECT_EQ(merge_stats.missing, 0u);
  ASSERT_EQ(manifest.size(), 2u);
  EXPECT_EQ(manifest[0].cell, 1u);
  EXPECT_EQ(manifest[1].cell, 2u);
  EXPECT_EQ(manifest[0].attempts, 3u);
  expect_survivors_identical(grid, merged, {1, 2});

  // Strict mode still refuses the same journals.
  EXPECT_THROW((void)merge_sweep_entries(full_shard(grid),
                                         SweepJournal::load(journal)),
               ConfigError);
  std::remove(journal.c_str());
}

TEST_F(FaultToleranceTest, SingleCellChunksSurviveFullyQuarantinedChunks) {
  // With --batch 1 a faulted cell leaves its chunk with ZERO buildable
  // configs; the batch phase must skip the (empty) lockstep group instead
  // of handing BatchRunner an empty session list.  Regression test for the
  // crash the chaos smoke first caught.
  const SweepGridSpec grid = tiny_grid();
  const std::string journal = temp_path("one_cell_chunks.csv");
  std::remove(journal.c_str());

  SweepWorkerOptions options;
  options.batch_limit = 1;
  fault_injection::arm("worker.cell:key=1;worker.cell:key=2");
  const SweepWorkerStats stats =
      run_sweep_shard(full_shard(grid), journal, options);
  fault_injection::disarm_all();

  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.remaining, 0u);
  const std::vector<PolicySummary> merged = merge_sweep_entries(
      full_shard(grid), SweepJournal::load(journal), nullptr,
      SweepMergeOptions{.allow_partial = true});
  expect_survivors_identical(grid, merged, {1, 2});
  std::remove(journal.c_str());
}

TEST_F(FaultToleranceTest, EscalationLadderRecoversTransientFaults) {
  // The fault hits cell 3 exactly once: the first attempt fails, the solo
  // retry succeeds, and the shard completes with no FAILED record and full
  // stats.
  const SweepGridSpec grid = tiny_grid();
  const std::string journal = temp_path("escalate.csv");
  std::remove(journal.c_str());

  fault_injection::arm("worker.cell:key=3:count=1");
  const SweepWorkerStats stats = run_sweep_shard(full_shard(grid), journal);
  fault_injection::disarm_all();

  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.failed, 0u);
  for (const JournalEntry& e : SweepJournal::load(journal)) {
    EXPECT_FALSE(e.failed);
  }
  // Every cell matches the reference bit-exactly, the retried one too: its
  // retry is the same configuration run solo (the batch==solo contract).
  SweepMergeStats merge_stats;
  const std::vector<PolicySummary> merged = merge_sweep_entries(
      full_shard(grid), SweepJournal::load(journal), &merge_stats);
  expect_survivors_identical(grid, merged, {});
  std::remove(journal.c_str());
}

TEST_F(FaultToleranceTest, ChunkFaultFallsBackToBitIdenticalSoloRuns) {
  // worker.chunk aborts the chunk's lockstep slices; the solo fallback must
  // reproduce every cell byte-for-byte (the batch==solo contract), on one
  // slice thread and on two.
  const SweepGridSpec grid = tiny_grid();
  for (const std::size_t threads : {1u, 2u}) {
    SCOPED_TRACE(threads);
    const std::string journal = temp_path("chunk_fault.csv");
    std::remove(journal.c_str());

    SweepWorkerOptions options;
    options.worker_threads = threads;
    fault_injection::arm("worker.chunk");
    const SweepWorkerStats stats =
        run_sweep_shard(full_shard(grid), journal, options);
    fault_injection::disarm_all();

    EXPECT_EQ(stats.completed, 4u);
    EXPECT_EQ(stats.failed, 0u);
    const std::vector<PolicySummary> merged =
        merge_sweep_entries(full_shard(grid), SweepJournal::load(journal));
    expect_survivors_identical(grid, merged, {});
    std::remove(journal.c_str());
  }
}

TEST_F(FaultToleranceTest, ThreadPoolExecutionContainsFailuresToo) {
  // Same containment contract with the slices on a four-thread pool: the
  // failing cell is quarantined before its chunk's slices run, the pool
  // runs the rest, and the journal stays loadable.
  const SweepGridSpec grid = tiny_grid();
  const std::string journal = temp_path("quarantine_pool.csv");
  std::remove(journal.c_str());

  SweepWorkerOptions options;
  options.worker_threads = 4;

  fault_injection::arm("worker.cell:key=0");
  const SweepWorkerStats stats =
      run_sweep_shard(full_shard(grid), journal, options);
  fault_injection::disarm_all();

  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.failed, 1u);
  const std::vector<JournalEntry> entries = SweepJournal::load(journal);
  EXPECT_EQ(entries.size(), 4u);

  SweepMergeOptions partial;
  partial.allow_partial = true;
  std::vector<SweepFailure> manifest;
  const std::vector<PolicySummary> merged = merge_sweep_entries(
      full_shard(grid), entries, nullptr, partial, &manifest);
  ASSERT_EQ(manifest.size(), 1u);
  EXPECT_EQ(manifest[0].cell, 0u);
  expect_survivors_identical(grid, merged, {0});
  std::remove(journal.c_str());
}

TEST_F(FaultToleranceTest, ResumeSkipsFailedCellsInsteadOfRetrying) {
  const SweepGridSpec grid = tiny_grid();
  const std::string journal = temp_path("resume_failed.csv");
  std::remove(journal.c_str());

  fault_injection::arm("worker.cell:key=1");
  (void)run_sweep_shard(full_shard(grid), journal);
  fault_injection::disarm_all();

  // Faults are gone now, but the FAILED record is checkpoint state: the
  // resumed worker must not burn time re-solving a cell a prior run
  // already retried through the whole ladder.
  const SweepWorkerStats resumed = run_sweep_shard(full_shard(grid), journal);
  EXPECT_EQ(resumed.already_done, 4u);
  EXPECT_EQ(resumed.completed, 0u);
  EXPECT_EQ(resumed.failed, 0u);
  std::remove(journal.c_str());
}

TEST_F(FaultToleranceTest, OkRecordBeatsFailedRecordAcrossJournals) {
  // Shard A failed cell 1 and journaled it; a later rerun (shard B,
  // fault-free) succeeded.  The merge must take the completed result and
  // keep the manifest empty.
  const SweepGridSpec grid = tiny_grid();
  const std::string journal_a = temp_path("dup_failed_a.csv");
  const std::string journal_b = temp_path("dup_failed_b.csv");
  std::remove(journal_a.c_str());
  std::remove(journal_b.c_str());

  fault_injection::arm("worker.cell:key=1");
  (void)run_sweep_shard(full_shard(grid), journal_a);
  fault_injection::disarm_all();
  (void)run_sweep_shard(full_shard(grid), journal_b);

  std::vector<JournalEntry> entries = SweepJournal::load(journal_a);
  const std::vector<JournalEntry> rerun = SweepJournal::load(journal_b);
  entries.insert(entries.end(), rerun.begin(), rerun.end());

  SweepMergeStats stats;
  std::vector<SweepFailure> manifest;
  const std::vector<PolicySummary> merged = merge_sweep_entries(
      full_shard(grid), entries, &stats, SweepMergeOptions{}, &manifest);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_TRUE(manifest.empty());
  expect_survivors_identical(grid, merged, {1});  // cell 1 via rerun …
  expect_survivors_identical(grid, merged, {});   // … and it matches too
  std::remove(journal_a.c_str());
  std::remove(journal_b.c_str());
}

TEST_F(FaultToleranceTest, FailedJournalRecordsRoundTripThroughCsv) {
  const std::string path = temp_path("failed_roundtrip.csv");
  std::remove(path.c_str());

  JournalEntry failed;
  failed.cell = 7;
  failed.failed = true;
  failed.scenario = "talb-var";
  failed.workload = "Web-med";
  failed.error = "vanishing pivot [backend=direct, iterations=17, residual=0]";
  failed.attempts = 3;
  {
    SweepJournal journal(path);
    journal.append(failed);
  }
  const std::vector<JournalEntry> entries = SweepJournal::load(path);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(entries[0].failed);
  EXPECT_EQ(entries[0].cell, 7u);
  EXPECT_EQ(entries[0].scenario, failed.scenario);
  EXPECT_EQ(entries[0].workload, failed.workload);
  EXPECT_EQ(entries[0].error, failed.error);
  EXPECT_EQ(entries[0].attempts, 3u);
  std::remove(path.c_str());
}

TEST_F(FaultToleranceTest, InjectedAppendFailureNeverWelds) {
  // The journal.append site persists a torn half-record and throws.  The
  // loader must drop the torn tail, and the next open must truncate it so
  // the following append cannot weld onto the debris.
  const std::string path = temp_path("append_fault.csv");
  std::remove(path.c_str());

  SimulationResult r;
  r.label = "LB (Air), \"quoted\"";  // quoting stresses the tail scanner
  r.benchmark = "gzip";
  r.avg_tmax = 79.25;

  JournalEntry first;
  first.cell = 0;
  first.result = r;
  JournalEntry second = first;
  second.cell = 1;

  {
    SweepJournal journal(path);
    journal.append(first);
    fault_injection::arm("journal.append");
    EXPECT_THROW(journal.append(second), ConfigError);
    fault_injection::disarm_all();
  }
  {
    const std::vector<JournalEntry> entries = SweepJournal::load(path);
    ASSERT_EQ(entries.size(), 1u);  // torn record dropped
    EXPECT_EQ(entries[0].cell, 0u);
  }
  {
    SweepJournal journal(path);  // reopen: truncates the torn tail
    journal.append(second);
  }
  const std::vector<JournalEntry> entries = SweepJournal::load(path);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].cell, 0u);
  EXPECT_EQ(entries[1].cell, 1u);  // clean record, no welded hybrid
  EXPECT_TRUE(results_identical(entries[1].result, r));
  std::remove(path.c_str());
}

TEST_F(FaultToleranceTest, ManifestCsvWriterEmitsOneRowPerFailure) {
  std::vector<SweepFailure> manifest(2);
  manifest[0] = {1, "lb-air", "Web-med", "injected worker.cell fault", 3};
  manifest[1] = {5, "talb-var", "gzip", "missing from every journal", 0};
  std::ostringstream out;
  write_failure_manifest_csv(out, manifest);
  EXPECT_EQ(out.str(),
            "cell,scenario,workload,error,attempts\n"
            "1,lb-air,Web-med,injected worker.cell fault,3\n"
            "5,talb-var,gzip,missing from every journal,0\n");
}

}  // namespace
}  // namespace liquid3d
