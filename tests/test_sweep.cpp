// Distributed sweep subsystem (src/sweep/): shard planner, worker driver,
// checkpoint journal, deterministic merge.  The load-bearing contract:
// merged output from K-sharded runs — any shard order, any resume history —
// is bit-identical to a single-process ExperimentSuite::run of the grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "geom/stack.hpp"
#include "geom/stack_spec.hpp"
#include "sim/report.hpp"
#include "sweep/journal.hpp"
#include "sweep/merge.hpp"
#include "sweep/plan.hpp"
#include "sweep/worker.hpp"

namespace liquid3d {
namespace {

/// Small, fast grid: 2 scenarios x 2 workloads on a coarse thermal grid.
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

/// Byte-level report comparison: the acceptance criterion is bit-identical
/// *exports*, not just numerically close summaries.
std::string summaries_csv(const std::vector<PolicySummary>& summaries) {
  std::ostringstream out;
  write_summaries_csv(out, summaries);
  return out.str();
}

void expect_identical_summaries(const std::vector<PolicySummary>& a,
                                const std::vector<PolicySummary>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].label, b[s].label);
    ASSERT_EQ(a[s].per_workload.size(), b[s].per_workload.size());
    for (std::size_t w = 0; w < a[s].per_workload.size(); ++w) {
      EXPECT_TRUE(
          results_identical(a[s].per_workload[w], b[s].per_workload[w]))
          << a[s].label << " / " << a[s].per_workload[w].benchmark;
    }
  }
  EXPECT_EQ(summaries_csv(a), summaries_csv(b));
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/liquid3d_sweep_" + name;
}

JournalEntry ok_entry(std::size_t cell, const SimulationResult& r) {
  JournalEntry e;
  e.cell = cell;
  e.result = r;
  return e;
}

TEST(SweepPlan, ExpandsGridInScenarioMajorOrder) {
  const SweepGridSpec grid = tiny_grid();
  const std::vector<SweepCell> cells = expand_grid(grid);
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].index, 0u);
  EXPECT_EQ(cells[0].scenario.name, "lb-air");
  EXPECT_EQ(cells[0].workload, "gzip");
  EXPECT_EQ(cells[3].index, 3u);
  EXPECT_EQ(cells[3].scenario.name, "talb-var");
  EXPECT_EQ(cells[3].workload, "Web-med");
}

TEST(SweepPlan, RoundRobinPartitionCoversAllCellsOnce) {
  const SweepGridSpec grid = tiny_grid();
  const auto shards =
      partition_cells(grid, expand_grid(grid), 3, ShardStrategy::kRoundRobin);
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0].size(), 2u);  // cells 0, 3
  EXPECT_EQ(shards[1].size(), 1u);
  EXPECT_EQ(shards[2].size(), 1u);
  std::vector<std::size_t> seen;
  for (const auto& shard : shards) {
    for (const SweepCell& c : shard) seen.push_back(c.index);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(SweepPlan, MoreShardsThanCellsLeavesEmptyShards) {
  const SweepGridSpec grid = tiny_grid();
  const auto shards =
      partition_cells(grid, expand_grid(grid), 6, ShardStrategy::kRoundRobin);
  ASSERT_EQ(shards.size(), 6u);
  EXPECT_TRUE(shards[4].empty());
  EXPECT_TRUE(shards[5].empty());
}

TEST(SweepPlan, CellCostIsTicksTimesSubstepsTimesSolveCost) {
  // cost = ticks x substeps x (n x per-row step cost + fluid cells), with
  // the banded LU's per-row price ~4b + 2b^2/200.  On the tiny grid (2 s at
  // 100 ms ticks, 2 substeps) the 2-layer liquid stack has n = 2 x 8 x 9
  // nodes, b = 9 x 2 and 3 cavities of 8 x 9 cells; the 4-layer stack has
  // n = 4 x 8 x 9, b = 9 x 4 and 5 cavities.
  SweepGridSpec grid = tiny_grid();
  const ScenarioSpec two = grid.scenarios[1];
  ScenarioSpec four = two;
  four.name = "talb-var-4layer";
  four.stack = "niagara-4layer";
  const double ticks_x_substeps = 20.0 * 2.0;
  const auto cost = [&](double layers, double cavities) {
    const double n = layers * 8.0 * 9.0;
    const double b = 9.0 * layers;
    return ticks_x_substeps * (n * (4.0 * b + 2.0 * b * b / 200.0) + cavities * 8.0 * 9.0);
  };
  EXPECT_DOUBLE_EQ(estimate_cell_cost(grid, two), cost(2.0, 3.0));
  EXPECT_DOUBLE_EQ(estimate_cell_cost(grid, four), cost(4.0, 5.0));
}

TEST(SweepPlan, CostWeightedPartitionIsDeterministicAndComplete) {
  SweepGridSpec grid = tiny_grid();
  // Mix cheap air cells with 2- and 4-layer liquid cells so costs
  // genuinely differ.
  ScenarioSpec four = ScenarioRegistry::global().at("talb-var");
  four.name = "talb-var-4layer";
  four.stack = "niagara-4layer";
  grid.scenarios.push_back(four);

  const double air = estimate_cell_cost(grid, grid.scenarios[0]);
  const double liquid = estimate_cell_cost(grid, grid.scenarios[1]);
  const double four_cost = estimate_cell_cost(grid, four);
  EXPECT_GT(air, 0.0);
  EXPECT_GT(liquid, air);        // liquid stacks add cavities + fluid march
  EXPECT_GT(four_cost, liquid);  // twice the nodes at twice the bandwidth

  const auto a =
      partition_cells(grid, expand_grid(grid), 3, ShardStrategy::kCostWeighted);
  const auto b =
      partition_cells(grid, expand_grid(grid), 3, ShardStrategy::kCostWeighted);
  ASSERT_EQ(a.size(), 3u);
  std::vector<std::size_t> seen;
  for (std::size_t k = 0; k < a.size(); ++k) {
    ASSERT_EQ(a[k].size(), b[k].size());
    for (std::size_t i = 0; i < a[k].size(); ++i) {
      EXPECT_EQ(a[k][i].index, b[k][i].index);  // deterministic
      seen.push_back(a[k][i].index);
    }
    // Canonical in-shard order.
    EXPECT_TRUE(std::is_sorted(a[k].begin(), a[k].end(),
                               [](const SweepCell& x, const SweepCell& y) {
                                 return x.index < y.index;
                               }));
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(SweepPlan, CellFileRoundTripsIncludingAwkwardNames) {
  SweepGridSpec grid = tiny_grid();
  // Scenario names/labels are user-supplied: commas and quotes must survive.
  ScenarioSpec awkward = grid.scenarios[1];
  awkward.name = "weird, \"name\"";
  awkward.label = "Label, with commas";
  grid.scenarios.push_back(awkward);
  grid.duration = SimTime::from_ms(2500);
  grid.layer_pairs = 2;
  grid.seed = 99;
  grid.dpm_enabled = false;

  const std::vector<SweepCell> cells = expand_grid(grid);
  std::ostringstream out;
  write_sweep_cells(out, grid, cells);
  std::istringstream in(out.str());
  const SweepCellFile back = read_sweep_cells(in, "test");

  EXPECT_EQ(back.grid.layer_pairs, 2u);
  EXPECT_EQ(back.grid.duration.as_ms(), 2500);
  EXPECT_EQ(back.grid.seed, 99u);
  EXPECT_FALSE(back.grid.dpm_enabled);
  EXPECT_EQ(back.grid.grid_rows, 8u);
  EXPECT_EQ(back.grid.grid_cols, 9u);
  ASSERT_EQ(back.cells.size(), cells.size());
  ASSERT_EQ(back.grid.scenarios.size(), 3u);
  EXPECT_EQ(back.grid.scenarios[2].name, "weird, \"name\"");
  EXPECT_EQ(back.grid.scenarios[2].label, "Label, with commas");
  EXPECT_EQ(back.grid.workloads, grid.workloads);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(back.cells[i].index, cells[i].index);
    EXPECT_EQ(back.cells[i].scenario.name, cells[i].scenario.name);
    EXPECT_EQ(back.cells[i].workload, cells[i].workload);
  }
}

TEST(SweepPlan, ReaderReportsRowAndColumn) {
  const std::string good =
      "#liquid3d-sweep v1\n"
      "#suite layer_pairs=1 duration_ms=2000 seed=7 dpm=1\n"
      "cell,name,policy,cooling,valves,skew,label,stack,workload\n"
      "0,lb-air,lb,air,0,,,,gzip\n";
  {
    std::istringstream in(good);
    EXPECT_EQ(read_sweep_cells(in, "shard.csv").cells.size(), 1u);
  }
  // Bad policy on data row 4 (comments + header count as rows).
  std::string bad = good;
  bad.replace(bad.find(",lb,"), 4, ",zz,");
  std::istringstream in(bad);
  try {
    (void)read_sweep_cells(in, "shard.csv");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("shard.csv row 4"), std::string::npos) << msg;
    EXPECT_NE(msg.find("column 'policy'"), std::string::npos) << msg;
  }

  std::istringstream no_header("#liquid3d-sweep v1\nnot,a,header\n");
  EXPECT_THROW((void)read_sweep_cells(no_header, "x"), ConfigError);

  std::istringstream dup(
      "cell,name,policy,cooling,valves,skew,label,stack,workload\n"
      "0,lb-air,lb,air,0,,,,gzip\n"
      "0,lb-air,lb,air,0,,,,gzip\n");
  EXPECT_THROW((void)read_sweep_cells(dup, "x"), ConfigError);
}

TEST(SweepJournal, AppendLoadRoundTripsBitExactly) {
  const std::string path = temp_path("journal_roundtrip.csv");
  std::remove(path.c_str());

  SimulationResult r;
  r.label = "LB (Air), \"quoted\"";
  r.benchmark = "gzip";
  r.avg_tmax = 79.0 + 1.0 / 3.0;
  r.migrations = 42;
  {
    SweepJournal journal(path);
    journal.append(ok_entry(3, r));
    journal.append(ok_entry(5, r));
  }
  const std::vector<JournalEntry> entries = SweepJournal::load(path);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].cell, 3u);
  EXPECT_EQ(entries[1].cell, 5u);
  EXPECT_TRUE(results_identical(entries[0].result, r));
  std::remove(path.c_str());
}

TEST(SweepJournal, MissingFileIsEmpty) {
  EXPECT_TRUE(SweepJournal::load(temp_path("never_written.csv")).empty());
}

TEST(SweepJournal, TornTailIsDroppedOnLoadAndRepairedOnAppend) {
  const std::string path = temp_path("journal_torn.csv");
  std::remove(path.c_str());
  SimulationResult r;
  r.label = "x";
  r.benchmark = "gzip";
  {
    SweepJournal journal(path);
    journal.append(ok_entry(0, r));
  }
  // Simulate a crash mid-write: append half a record, no newline.
  {
    std::ofstream out(path, std::ios::app);
    out << "1,torn,gzip,0,0,0";
  }
  // The loader drops the torn tail...
  std::vector<JournalEntry> entries = SweepJournal::load(path);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].cell, 0u);
  // ...and re-opening for append truncates it, so the next record doesn't
  // weld onto the torn bytes.
  {
    SweepJournal journal(path);
    journal.append(ok_entry(2, r));
  }
  entries = SweepJournal::load(path);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].cell, 0u);
  EXPECT_EQ(entries[1].cell, 2u);
  std::remove(path.c_str());
}

TEST(SweepJournal, TornHeaderIsRestartedOnReopen) {
  // A crash inside the very first write can persist the schema comment but
  // tear the header row; reopening must restart the preamble so appended
  // entries stay loadable.
  const std::string path = temp_path("journal_torn_header.csv");
  std::remove(path.c_str());
  {
    std::ofstream out(path);
    out << "#liquid3d-sweep-journal v1\ncell,label,benchm";  // torn header
  }
  SimulationResult r;
  r.label = "x";
  r.benchmark = "gzip";
  {
    SweepJournal journal(path);
    journal.append(ok_entry(4, r));
  }
  const std::vector<JournalEntry> entries = SweepJournal::load(path);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].cell, 4u);
  std::remove(path.c_str());
}

TEST(SweepJournal, CorruptInteriorRecordThrows) {
  const std::string path = temp_path("journal_corrupt.csv");
  std::remove(path.c_str());
  SimulationResult r;
  r.label = "x";
  r.benchmark = "gzip";
  {
    SweepJournal journal(path);
    journal.append(ok_entry(0, r));
  }
  {
    std::ofstream out(path, std::ios::app);
    out << "not-a-cell-index,x,gzip\n";  // terminated, wrong arity
  }
  EXPECT_THROW((void)SweepJournal::load(path), ConfigError);
  std::remove(path.c_str());
}

/// Fixture for the end-to-end distributed contract: plan -> workers (with
/// resume) -> merge == single-process suite run.
class SweepEndToEnd : public ::testing::Test {
 protected:
  static std::vector<PolicySummary> single_process(const SweepGridSpec& grid) {
    std::vector<BenchmarkSpec> workloads;
    for (const std::string& name : grid.workloads) {
      workloads.push_back(*find_benchmark(name));
    }
    ExperimentSuite suite(to_suite_config(grid));
    return suite.run(grid.scenarios, workloads);
  }

  /// Plan into `shard_count` shards, run every shard through its own
  /// journal, and return the journal paths (plan cells via expand_grid).
  std::vector<std::string> run_sharded(const SweepGridSpec& grid,
                                       std::size_t shard_count,
                                       const SweepWorkerOptions& options = {},
                                       const std::string& tag = "e2e") {
    const auto shards = partition_cells(grid, expand_grid(grid), shard_count,
                                        ShardStrategy::kRoundRobin);
    std::vector<std::string> journals;
    for (std::size_t k = 0; k < shards.size(); ++k) {
      SweepCellFile shard;
      shard.grid = grid;
      shard.cells = shards[k];
      const std::string path =
          temp_path(tag + "_journal_" + std::to_string(k) + ".csv");
      std::remove(path.c_str());
      run_sweep_shard(shard, path, options);
      journals.push_back(path);
    }
    return journals;
  }

  static SweepCellFile plan_file(const SweepGridSpec& grid) {
    SweepCellFile plan;
    plan.grid = grid;
    plan.cells = expand_grid(grid);
    return plan;
  }

  static void cleanup(const std::vector<std::string>& paths) {
    for (const std::string& p : paths) std::remove(p.c_str());
  }
};

TEST_F(SweepEndToEnd, MergedShardsMatchSingleProcessBitExactly) {
  const SweepGridSpec grid = tiny_grid();
  const std::vector<PolicySummary> reference = single_process(grid);

  const std::vector<std::string> journals = run_sharded(grid, 3);
  std::vector<JournalEntry> entries;
  for (const std::string& path : journals) {
    auto loaded = SweepJournal::load(path);
    entries.insert(entries.end(), loaded.begin(), loaded.end());
  }
  SweepMergeStats stats;
  const std::vector<PolicySummary> merged =
      merge_sweep_entries(plan_file(grid), entries, &stats);
  EXPECT_EQ(stats.cells, 4u);
  EXPECT_EQ(stats.duplicates, 0u);
  expect_identical_summaries(reference, merged);

  // Merge is invariant under shard/journal order: reverse every entry.
  std::vector<JournalEntry> shuffled(entries.rbegin(), entries.rend());
  expect_identical_summaries(
      reference, merge_sweep_entries(plan_file(grid), shuffled));
  cleanup(journals);
}

TEST_F(SweepEndToEnd, KilledWorkerResumesWithoutRecomputingJournaledCells) {
  const SweepGridSpec grid = tiny_grid();
  const auto shards =
      partition_cells(grid, expand_grid(grid), 1, ShardStrategy::kRoundRobin);
  SweepCellFile shard;
  shard.grid = grid;
  shard.cells = shards[0];  // all 4 cells
  const std::string path = temp_path("resume_journal.csv");
  std::remove(path.c_str());

  // "Kill" after one cell: max_new_cells cuts the run short exactly the
  // way a SIGKILL between chunks would.
  SweepWorkerOptions partial;
  partial.batch_limit = 1;
  partial.max_new_cells = 1;
  SweepWorkerStats stats = run_sweep_shard(shard, path, partial);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.remaining, 3u);
  EXPECT_EQ(SweepJournal::load(path).size(), 1u);

  // Resume to completion: the journaled cell is skipped, not recomputed.
  stats = run_sweep_shard(shard, path);
  EXPECT_EQ(stats.already_done, 1u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.remaining, 0u);

  expect_identical_summaries(
      single_process(grid),
      merge_sweep_entries(plan_file(grid), SweepJournal::load(path)));
  cleanup({path});
}

TEST_F(SweepEndToEnd, DuplicateJournalEntriesMergeCleanly) {
  // A worker killed after computing (but before the journal fsync was
  // observed) re-runs the cell on resume; determinism makes the duplicate
  // byte-identical, and the merge folds it without complaint.
  const SweepGridSpec grid = tiny_grid();
  const std::vector<std::string> journals = run_sharded(grid, 2, {}, "dup");
  std::vector<JournalEntry> entries;
  for (const std::string& path : journals) {
    auto loaded = SweepJournal::load(path);
    entries.insert(entries.end(), loaded.begin(), loaded.end());
  }
  entries.push_back(entries.front());  // exact duplicate
  SweepMergeStats stats;
  const std::vector<PolicySummary> merged =
      merge_sweep_entries(plan_file(grid), entries, &stats);
  EXPECT_EQ(stats.duplicates, 1u);
  expect_identical_summaries(single_process(grid), merged);

  // A *conflicting* duplicate is a broken determinism contract: loud error.
  entries.push_back(entries.front());
  entries.back().result.avg_tmax += 1.0;
  EXPECT_THROW((void)merge_sweep_entries(plan_file(grid), entries),
               ConfigError);
  cleanup(journals);
}

TEST_F(SweepEndToEnd, IncompleteSweepAndStrayCellsAreRejected) {
  const SweepGridSpec grid = tiny_grid();
  const std::vector<std::string> journals = run_sharded(grid, 2, {}, "gap");
  std::vector<JournalEntry> entries = SweepJournal::load(journals[0]);

  // Only shard 0's cells: the merge must name the gap, not fabricate rows.
  try {
    (void)merge_sweep_entries(plan_file(grid), entries);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("incomplete"), std::string::npos);
  }

  // An entry outside the plan's grid is rejected too.
  JournalEntry stray = entries.front();
  stray.cell = 99;
  entries.push_back(stray);
  EXPECT_THROW((void)merge_sweep_entries(plan_file(grid), entries),
               ConfigError);
  cleanup(journals);
}

TEST_F(SweepEndToEnd, SingleCellGridAndEmptyShardsWork) {
  SweepGridSpec grid = tiny_grid();
  grid.scenarios.resize(1);
  grid.workloads.resize(1);
  ASSERT_EQ(grid.cell_count(), 1u);

  // 3 shards for 1 cell: two are empty; empty workers are no-ops.
  const std::vector<std::string> journals = run_sharded(grid, 3, {}, "one");
  std::vector<JournalEntry> entries;
  for (const std::string& path : journals) {
    auto loaded = SweepJournal::load(path);
    entries.insert(entries.end(), loaded.begin(), loaded.end());
  }
  ASSERT_EQ(entries.size(), 1u);
  expect_identical_summaries(single_process(grid),
                             merge_sweep_entries(plan_file(grid), entries));
  cleanup(journals);
}

TEST_F(SweepEndToEnd, TwoWorkerThreadsMatchOne) {
  // A shard's slices run on its worker_threads pool; with a third workload
  // the six-cell chunk (default batch_limit 8) is two slices, which two
  // threads take at once.  Both must journal the bytes one thread does.
  SweepGridSpec grid = tiny_grid();
  grid.workloads.push_back("Database");
  SweepWorkerOptions pooled;
  pooled.worker_threads = 2;
  const std::vector<std::string> a = run_sharded(grid, 1, pooled, "two");
  const std::vector<std::string> b = run_sharded(grid, 1, {}, "one");
  auto load_all = [](const std::vector<std::string>& paths) {
    std::vector<JournalEntry> entries;
    for (const std::string& p : paths) {
      auto loaded = SweepJournal::load(p);
      entries.insert(entries.end(), loaded.begin(), loaded.end());
    }
    return entries;
  };
  expect_identical_summaries(
      merge_sweep_entries(plan_file(grid), load_all(a)),
      merge_sweep_entries(plan_file(grid), load_all(b)));
  cleanup(a);
  cleanup(b);
}

TEST_F(SweepEndToEnd, FilePlanRoundTripMatchesInMemoryPlan) {
  // write_sweep_plan -> read_sweep_file -> worker -> merge: the full
  // on-disk path, exactly what the sweep_worker CLI drives.
  const SweepGridSpec grid = tiny_grid();
  const std::string dir = temp_path("plan_dir");
  const std::vector<std::string> shard_paths =
      write_sweep_plan(grid, 2, ShardStrategy::kCostWeighted, dir, "t");

  std::vector<std::string> journals;
  for (std::size_t k = 0; k < shard_paths.size(); ++k) {
    const SweepCellFile shard = read_sweep_file(shard_paths[k]);
    EXPECT_EQ(shard.grid.duration.as_ms(), grid.duration.as_ms());
    const std::string journal =
        temp_path("plan_dir_journal_" + std::to_string(k) + ".csv");
    std::remove(journal.c_str());
    run_sweep_shard(shard, journal);
    journals.push_back(journal);
  }
  SweepMergeStats stats;
  const std::vector<PolicySummary> merged =
      merge_sweep_journals(dir + "/t-plan.csv", journals, &stats);
  EXPECT_EQ(stats.cells, grid.cell_count());
  expect_identical_summaries(single_process(grid), merged);
  cleanup(journals);
  for (const std::string& p : shard_paths) std::remove(p.c_str());
  std::remove((dir + "/t-plan.csv").c_str());
}

/// A non-Niagara custom stack for the stack-axis sweep test: one 6 mm x 6 mm
/// quad-core die under liquid cooling.
StackSpec custom_test_stack() {
  StackSpec spec;
  spec.name = "quad-die";
  spec.cooling = CoolingType::kLiquid;
  spec.die_width = 6e-3;
  spec.die_height = 6e-3;
  StackLayerEntry layer;
  layer.blocks.push_back({"core0", BlockType::kCore, Rect{0, 0, 3e-3, 3e-3}});
  layer.blocks.push_back({"core1", BlockType::kCore, Rect{3e-3, 0, 3e-3, 3e-3}});
  layer.blocks.push_back({"core2", BlockType::kCore, Rect{0, 3e-3, 3e-3, 3e-3}});
  layer.blocks.push_back(
      {"core3", BlockType::kCore, Rect{3e-3, 3e-3, 3e-3, 3e-3}});
  spec.layers.push_back(layer);
  CavitySpec cavity;
  cavity.channel_count = 40;
  cavity.pitch = 150e-6;
  cavity.channel_width = 70e-6;
  spec.cavities = {cavity};
  return spec;
}

TEST_F(SweepEndToEnd, CustomStackSweepShardsResumeAndMergeBitExactly) {
  // The ISSUE acceptance bar: a file-defined custom stack rides the stack
  // axis through plan -> shard -> resume -> merge, with the spec carried
  // entirely in #suite metadata (the file is DELETED before workers run),
  // and the merged output is bit-identical to a single-process run.
  const std::string stack_path = temp_path("custom_stack.stack");
  {
    std::ofstream out(stack_path);
    write_stack_file(out, custom_test_stack());
  }

  SweepGridSpec grid = tiny_grid();
  // The stack file fixes liquid cooling, so the grid is liquid-only.
  grid.scenarios = {ScenarioRegistry::global().at("lb-max"),
                    ScenarioRegistry::global().at("talb-var")};
  for (ScenarioSpec& s : grid.scenarios) s.stack = stack_path;

  // Reference: resolve the file into an embedded spec, run in-process.
  SweepGridSpec resolved = grid;
  resolve_grid_stacks(resolved);
  ASSERT_EQ(resolved.stacks.size(), 1u);
  EXPECT_EQ(resolved.stacks[0].name, stack_path);
  const std::vector<PolicySummary> reference = single_process(resolved);

  // Plan to disk; write_sweep_plan embeds the resolved spec itself.
  const std::string dir = temp_path("stack_plan_dir");
  const std::vector<std::string> shard_paths =
      write_sweep_plan(grid, 2, ShardStrategy::kRoundRobin, dir, "s");
  const std::string plan_path = dir + "/s-plan.csv";
  {
    std::ifstream in(plan_path);
    std::stringstream text;
    text << in.rdbuf();
    EXPECT_NE(text.str().find("stack="), std::string::npos)
        << "plan #suite line lacks the embedded stack spec";
  }

  // Remote shards have no access to the original file: delete it.  Every
  // worker below must rebuild the geometry from #suite metadata alone.
  std::remove(stack_path.c_str());

  std::vector<std::string> journals;
  for (std::size_t k = 0; k < shard_paths.size(); ++k) {
    const SweepCellFile shard = read_sweep_file(shard_paths[k]);
    const std::string journal =
        temp_path("stack_journal_" + std::to_string(k) + ".csv");
    std::remove(journal.c_str());
    if (k == 0) {
      // Kill shard 0 after one cell, then resume it to completion.
      SweepWorkerOptions partial;
      partial.batch_limit = 1;
      partial.max_new_cells = 1;
      SweepWorkerStats stats = run_sweep_shard(shard, journal, partial);
      EXPECT_EQ(stats.completed, 1u);
      stats = run_sweep_shard(shard, journal);
      EXPECT_EQ(stats.already_done, 1u);
    } else {
      run_sweep_shard(shard, journal);
    }
    journals.push_back(journal);
  }

  SweepMergeStats stats;
  const std::vector<PolicySummary> merged =
      merge_sweep_journals(plan_path, journals, &stats);
  EXPECT_EQ(stats.cells, 4u);
  expect_identical_summaries(reference, merged);

  cleanup(journals);
  for (const std::string& p : shard_paths) std::remove(p.c_str());
  std::remove(plan_path.c_str());
}

TEST(SweepPlan, StackAxisRoundTripsThroughSuiteMetadata) {
  // write_sweep_cells / read_sweep_cells carry embedded specs losslessly,
  // and pre-stack-axis shard files (9-column header) still load.
  SweepGridSpec grid = tiny_grid();
  grid.scenarios = {ScenarioRegistry::global().at("talb-var")};
  grid.scenarios[0].stack = "quad-die";
  grid.stacks = {custom_test_stack()};

  std::ostringstream out;
  write_sweep_cells(out, grid, expand_grid(grid));
  EXPECT_NE(out.str().find("stack="), std::string::npos);

  std::istringstream in(out.str());
  const SweepCellFile back = read_sweep_cells(in, "mem");
  ASSERT_EQ(back.grid.stacks.size(), 1u);
  EXPECT_EQ(back.grid.stacks[0].name, "quad-die");
  EXPECT_EQ(stack_fingerprint(make_stack(back.grid.stacks[0])),
            stack_fingerprint(make_stack(custom_test_stack())));
  ASSERT_EQ(back.grid.scenarios.size(), 1u);
  EXPECT_EQ(back.grid.scenarios[0].stack, "quad-die");

  // A legacy file without the stack column (8 columns, no stack= token)
  // still loads, with the stack axis defaulting to empty.
  std::istringstream legacy_in(
      "#liquid3d-sweep v1\n"
      "#suite layer_pairs=1 duration_ms=2000 seed=7 dpm=1\n"
      "cell,name,policy,cooling,valves,skew,label,workload\n"
      "0,talb-var,talb,var,0,,,gzip\n");
  const SweepCellFile legacy_back = read_sweep_cells(legacy_in, "legacy");
  ASSERT_EQ(legacy_back.cells.size(), 1u);
  EXPECT_TRUE(legacy_back.grid.stacks.empty());
  EXPECT_TRUE(legacy_back.grid.scenarios[0].stack.empty());
}

}  // namespace
}  // namespace liquid3d
