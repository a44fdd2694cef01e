// sweep_worker — the distributed-sweep command-line driver.
//
// One binary, four subcommands, so an orchestration script (or a cluster
// job array) needs a single artifact:
//
//   sweep_worker plan   --shards K --out-dir DIR [grid flags]
//       Expand the grid, partition it, write DIR/<prefix>-plan.csv plus one
//       shard file per worker.
//   sweep_worker run    --shard FILE --journal FILE [--batch N]
//       Run (or resume) one shard; every completed cell is fsync'd into the
//       journal, so `kill -9` mid-run loses at most one chunk.
//   sweep_worker merge  --plan FILE --out FILE JOURNAL...
//       Fold the journals into the merged summaries CSV (and optional
//       JSON), bit-identical to a single-process run of the grid.  With
//       --allow-partial, FAILED/missing cells degrade into a failure
//       manifest (--manifest FILE) instead of aborting the merge.
//   sweep_worker single --plan FILE --out FILE
//       The single-process reference: ExperimentSuite::run on the plan's
//       grid, exported through the same writers — `diff` against the merged
//       output is the end-to-end determinism check CI performs.
//   sweep_worker supervise --dir DIR [--prefix sweep]
//       Spawn one `run` child per DIR/<prefix>-shard-*.csv, restart
//       crashed children with exponential backoff, SIGKILL+restart children
//       whose journal stops growing.  The chaos harness for fleet runs.
//
// Fault injection: every subcommand arms LIQUID3D_FAULTS from the
// environment at startup (see common/fault_injection.hpp for the spec
// grammar); supervised children inherit the variable through fork/exec.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/parse.hpp"
#include "obs/metrics.hpp"
#include "geom/stack_spec.hpp"
#include "sim/report.hpp"
#include "sweep/merge.hpp"
#include "sweep/plan.hpp"
#include "sweep/supervisor.hpp"
#include "sweep/worker.hpp"
#include "workload/benchmarks.hpp"

namespace {

using namespace liquid3d;

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " COMMAND [options]\n"
      << "\n"
      << "  plan   --shards K --out-dir DIR [--prefix sweep]\n"
      << "         [--strategy round-robin|cost] [--scenarios a,b,...]\n"
      << "         [--workloads x,y,...] [--layer-pairs N] [--duration-s S]\n"
      << "         [--seed N] [--dpm 0|1] [--grid-rows N] [--grid-cols N]\n"
      << "         [--stack PRESET|FILE]\n"
      << "  run    --shard FILE --journal FILE [--batch N] [--max-cells N]\n"
      << "         [--threads N] [--attempts N]\n"
      << "         Chunks of --batch cells run as lockstep slices on\n"
      << "         --threads threads (default 1, 0 = every core).\n"
      << "  merge  --plan FILE --out FILE [--json FILE] [--allow-partial]\n"
      << "         [--manifest FILE] JOURNAL...\n"
      << "  single --plan FILE --out FILE [--json FILE]\n"
      << "  supervise --dir DIR [--prefix sweep] [--max-restarts N]\n"
      << "         [--stall-timeout-ms N] [--backoff-ms N] [--poll-ms N]\n"
      << "         [--batch N] [--threads N] [--attempts N]\n"
      << "  validate --stack FILE\n"
      << "         Parse and sanity-check a stack file; exit 2 with the\n"
      << "         diagnostic on failure.\n";
  return 2;
}

/// Minimal flag cursor: every option takes exactly one value.
class Args {
 public:
  Args(int argc, char** argv) : argc_(argc), argv_(argv) {}

  [[nodiscard]] bool next_is_flag() const {
    return i_ < argc_ && argv_[i_][0] == '-';
  }
  [[nodiscard]] bool done() const { return i_ >= argc_; }
  [[nodiscard]] std::string take() { return argv_[i_++]; }
  [[nodiscard]] std::string value(const std::string& flag) {
    LIQUID3D_REQUIRE(i_ < argc_, "missing value for " + flag);
    return argv_[i_++];
  }

 private:
  int argc_;
  char** argv_;
  int i_ = 0;
};

std::vector<std::string> split_csv_list(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream in(s);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

void write_report_files(const std::vector<PolicySummary>& summaries,
                        const std::string& csv_path,
                        const std::string& json_path) {
  std::ofstream csv(csv_path);
  LIQUID3D_REQUIRE(csv.good(), "cannot open '" + csv_path + "' for writing");
  write_summaries_csv(csv, summaries);
  LIQUID3D_REQUIRE(csv.good(), "write to '" + csv_path + "' failed");
  if (!json_path.empty()) {
    std::ofstream json(json_path);
    LIQUID3D_REQUIRE(json.good(), "cannot open '" + json_path + "' for writing");
    write_summaries_json(json, summaries);
  }
}

int cmd_plan(Args& args) {
  SweepGridSpec grid;
  grid.duration = SimTime::from_s(60);
  std::vector<std::string> scenario_names;
  std::size_t shards = 0;
  ShardStrategy strategy = ShardStrategy::kRoundRobin;
  std::string out_dir;
  std::string prefix = "sweep";
  std::string stack_axis;

  while (!args.done()) {
    const std::string flag = args.take();
    if (flag == "--shards") {
      shards = static_cast<std::size_t>(parse_u64(args.value(flag), flag));
    } else if (flag == "--out-dir") {
      out_dir = args.value(flag);
    } else if (flag == "--prefix") {
      prefix = args.value(flag);
    } else if (flag == "--strategy") {
      strategy = shard_strategy_from_name(args.value(flag));
    } else if (flag == "--scenarios") {
      scenario_names = split_csv_list(args.value(flag));
    } else if (flag == "--workloads") {
      grid.workloads = split_csv_list(args.value(flag));
    } else if (flag == "--layer-pairs") {
      grid.layer_pairs = static_cast<std::size_t>(parse_u64(args.value(flag), flag));
    } else if (flag == "--duration-s") {
      grid.duration = SimTime::from_s(parse_double(args.value(flag), flag));
    } else if (flag == "--seed") {
      grid.seed = parse_u64(args.value(flag), flag);
    } else if (flag == "--dpm") {
      grid.dpm_enabled = parse_u64(args.value(flag), flag) != 0;
    } else if (flag == "--grid-rows") {
      grid.grid_rows = static_cast<std::size_t>(parse_u64(args.value(flag), flag));
    } else if (flag == "--grid-cols") {
      grid.grid_cols = static_cast<std::size_t>(parse_u64(args.value(flag), flag));
    } else if (flag == "--stack") {
      stack_axis = args.value(flag);
    } else {
      throw ConfigError("unknown plan option '" + flag + "'");
    }
  }
  LIQUID3D_REQUIRE(shards >= 1, "plan requires --shards >= 1");
  LIQUID3D_REQUIRE(!out_dir.empty(), "plan requires --out-dir");

  if (scenario_names.empty()) {
    grid.scenarios = paper_scenario_grid();
  } else {
    for (const std::string& name : scenario_names) {
      grid.scenarios.push_back(ScenarioRegistry::global().at(name));
    }
  }
  if (grid.workloads.empty()) {
    for (const BenchmarkSpec& b : table2_benchmarks()) {
      grid.workloads.push_back(b.name);
    }
  } else {
    for (const std::string& name : grid.workloads) {
      LIQUID3D_REQUIRE(find_benchmark(name).has_value(),
                       "unknown workload '" + name + "'");
    }
  }
  if (!stack_axis.empty()) {
    // Every scenario of the sweep runs on the requested geometry; the axis
    // must be resolvable (and cooling-compatible) for each of them, so fail
    // at plan time rather than on a remote worker.
    for (ScenarioSpec& s : grid.scenarios) s.stack = stack_axis;
    resolve_grid_stacks(grid);
    for (const ScenarioSpec& s : grid.scenarios) {
      const CoolingType type = s.cooling == CoolingMode::kAir
                                   ? CoolingType::kAir
                                   : CoolingType::kLiquid;
      (void)resolve_stack_axis(s.stack, type, grid.stacks);
    }
  }

  const std::vector<std::string> shard_paths =
      write_sweep_plan(grid, shards, strategy, out_dir, prefix);
  std::cout << "planned " << grid.cell_count() << " cells ("
            << grid.scenarios.size() << " scenarios x "
            << grid.workloads.size() << " workloads) into "
            << shard_paths.size() << " shards [" << to_string(strategy)
            << "]\n";
  std::cout << "plan: " << out_dir << "/" << prefix << "-plan.csv\n";
  for (const std::string& p : shard_paths) std::cout << "shard: " << p << "\n";
  return 0;
}

int cmd_run(Args& args) {
  std::string shard_path;
  std::string journal_path;
  SweepWorkerOptions options;

  while (!args.done()) {
    const std::string flag = args.take();
    if (flag == "--shard") {
      shard_path = args.value(flag);
    } else if (flag == "--journal") {
      journal_path = args.value(flag);
    } else if (flag == "--batch") {
      options.batch_limit =
          static_cast<std::size_t>(parse_u64(args.value(flag), flag));
    } else if (flag == "--max-cells") {
      options.max_new_cells =
          static_cast<std::size_t>(parse_u64(args.value(flag), flag));
    } else if (flag == "--threads") {
      options.worker_threads =
          static_cast<std::size_t>(parse_u64(args.value(flag), flag));
    } else if (flag == "--attempts") {
      options.max_cell_attempts =
          static_cast<std::size_t>(parse_u64(args.value(flag), flag));
    } else {
      throw ConfigError("unknown run option '" + flag + "'");
    }
  }
  LIQUID3D_REQUIRE(!shard_path.empty() && !journal_path.empty(),
                   "run requires --shard and --journal");

  const SweepCellFile shard = read_sweep_file(shard_path);
  const SweepWorkerStats stats =
      run_sweep_shard(shard, journal_path, options);
  std::cout << "shard " << shard_path << ": " << stats.completed
            << " cells run, " << stats.failed << " failed, "
            << stats.already_done << " resumed, " << stats.remaining
            << " remaining (of " << stats.total_cells << ")\n";
  // FAILED cells are journaled data, not a worker error: the shard was
  // fully processed, so the exit is 0 and the failures surface at merge.
  return stats.remaining == 0 ? 0 : 3;  // 3 = incomplete (max-cells cutoff)
}

int cmd_merge(Args& args) {
  std::string plan_path;
  std::string out_path;
  std::string json_path;
  std::string manifest_path;
  SweepMergeOptions options;
  std::vector<std::string> journals;

  while (!args.done()) {
    if (!args.next_is_flag()) {
      journals.push_back(args.take());
      continue;
    }
    const std::string flag = args.take();
    if (flag == "--plan") {
      plan_path = args.value(flag);
    } else if (flag == "--out") {
      out_path = args.value(flag);
    } else if (flag == "--json") {
      json_path = args.value(flag);
    } else if (flag == "--allow-partial") {
      options.allow_partial = true;
    } else if (flag == "--manifest") {
      manifest_path = args.value(flag);
    } else {
      throw ConfigError("unknown merge option '" + flag + "'");
    }
  }
  LIQUID3D_REQUIRE(!plan_path.empty() && !out_path.empty(),
                   "merge requires --plan and --out");
  LIQUID3D_REQUIRE(!journals.empty(), "merge requires at least one journal");
  LIQUID3D_REQUIRE(manifest_path.empty() || options.allow_partial,
                   "--manifest only applies with --allow-partial");

  SweepMergeStats stats;
  std::vector<SweepFailure> manifest;
  const std::vector<PolicySummary> summaries = merge_sweep_journals(
      plan_path, journals, &stats, options, &manifest);
  write_report_files(summaries, out_path, json_path);
  if (!manifest_path.empty()) {
    std::ofstream out(manifest_path);
    LIQUID3D_REQUIRE(out.good(),
                     "cannot open '" + manifest_path + "' for writing");
    write_failure_manifest_csv(out, manifest);
    LIQUID3D_REQUIRE(out.good(), "write to '" + manifest_path + "' failed");
  }
  std::cout << "merged " << stats.cells << " cells from " << journals.size()
            << " journals (" << stats.duplicates
            << " duplicate entries dropped";
  if (options.allow_partial) {
    std::cout << ", " << stats.failed << " FAILED, " << stats.missing
              << " missing";
  }
  std::cout << ") -> " << out_path << "\n";
  return 0;
}

int cmd_supervise(Args& args) {
  std::string dir;
  std::string prefix = "sweep";
  SupervisorOptions options;
  std::vector<std::string> worker_flags;

  while (!args.done()) {
    const std::string flag = args.take();
    if (flag == "--dir") {
      dir = args.value(flag);
    } else if (flag == "--prefix") {
      prefix = args.value(flag);
    } else if (flag == "--max-restarts") {
      options.max_restarts =
          static_cast<std::size_t>(parse_u64(args.value(flag), flag));
    } else if (flag == "--stall-timeout-ms") {
      options.stall_timeout =
          std::chrono::milliseconds(parse_u64(args.value(flag), flag));
    } else if (flag == "--backoff-ms") {
      options.initial_backoff =
          std::chrono::milliseconds(parse_u64(args.value(flag), flag));
    } else if (flag == "--poll-ms") {
      options.poll_interval =
          std::chrono::milliseconds(parse_u64(args.value(flag), flag));
    } else if (flag == "--batch" || flag == "--threads" ||
               flag == "--attempts") {
      // Forwarded verbatim to every spawned `run` child.
      worker_flags.push_back(flag);
      worker_flags.push_back(args.value(flag));
    } else {
      throw ConfigError("unknown supervise option '" + flag + "'");
    }
  }
  LIQUID3D_REQUIRE(!dir.empty(), "supervise requires --dir");

  // One worker per shard file the planner wrote; journals sit beside the
  // shards with the shard's own numeric suffix.
  const std::string shard_mark = prefix + "-shard-";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind(shard_mark, 0) != 0) continue;
    if (entry.path().extension() != ".csv") continue;
    options.shard_paths.push_back(entry.path().string());
  }
  std::sort(options.shard_paths.begin(), options.shard_paths.end());
  LIQUID3D_REQUIRE(!options.shard_paths.empty(),
                   "supervise: no '" + shard_mark + "*.csv' shards in '" +
                       dir + "'");
  for (const std::string& shard : options.shard_paths) {
    const std::string stem = std::filesystem::path(shard).stem().string();
    const std::string suffix = stem.substr(shard_mark.size() - 1);  // -NNN
    options.journal_paths.push_back(
        (std::filesystem::path(dir) / (prefix + "-journal" + suffix + ".csv"))
            .string());
  }

  // Children are this very binary: no PATH lookup, no skew between the
  // supervisor's code and the workers'.
  std::error_code ec;
  const std::filesystem::path self =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  LIQUID3D_REQUIRE(!ec, "supervise: cannot resolve /proc/self/exe");
  options.worker_binary = self.string();
  options.extra_args = worker_flags;

  const SupervisorResult result = supervise_sweep(options);
  for (const WorkerReport& w : result.workers) {
    std::cout << "worker " << w.shard_path << ": "
              << (w.succeeded ? "ok" : "FAILED") << " (" << w.spawns
              << " spawns, " << w.stall_kills << " stall kills)\n";
  }
  return result.all_succeeded ? 0 : 1;
}

int cmd_single(Args& args) {
  std::string plan_path;
  std::string out_path;
  std::string json_path;

  while (!args.done()) {
    const std::string flag = args.take();
    if (flag == "--plan") {
      plan_path = args.value(flag);
    } else if (flag == "--out") {
      out_path = args.value(flag);
    } else if (flag == "--json") {
      json_path = args.value(flag);
    } else {
      throw ConfigError("unknown single option '" + flag + "'");
    }
  }
  LIQUID3D_REQUIRE(!plan_path.empty() && !out_path.empty(),
                   "single requires --plan and --out");

  const SweepCellFile plan = read_sweep_file(plan_path);
  std::vector<BenchmarkSpec> workloads;
  for (const std::string& name : plan.grid.workloads) {
    const std::optional<BenchmarkSpec> b = find_benchmark(name);
    LIQUID3D_REQUIRE(b.has_value(), "unknown workload '" + name + "'");
    workloads.push_back(*b);
  }
  ExperimentSuite suite(to_suite_config(plan.grid));
  const std::vector<PolicySummary> summaries =
      suite.run(plan.grid.scenarios, workloads);
  write_report_files(summaries, out_path, json_path);
  std::cout << "ran " << plan.grid.cell_count()
            << " cells single-process -> " << out_path << "\n";
  return 0;
}

int cmd_validate(Args& args) {
  std::string stack_path;
  while (!args.done()) {
    const std::string flag = args.take();
    if (flag == "--stack") {
      stack_path = args.value(flag);
    } else {
      std::cerr << "unknown validate option '" << flag << "'\n";
      return 2;
    }
  }
  if (stack_path.empty()) {
    std::cerr << "validate requires --stack FILE\n";
    return 2;
  }
  // Own try/catch: a malformed stack file is a diagnostic for the user
  // (exit 2), not an internal worker error (exit 1).
  try {
    const StackSpec spec = load_stack_file(stack_path);
    const Stack3D stack = make_stack(spec);
    char fp[20];
    std::snprintf(fp, sizeof fp, "%016llx",
                  static_cast<unsigned long long>(stack_fingerprint(stack)));
    std::cout << stack_path << ": ok\n"
              << "  name: " << spec.name << "\n"
              << "  cooling: " << to_string(spec.cooling) << "\n"
              << "  layers: " << stack.layer_count() << " ("
              << stack.total_count(BlockType::kCore) << " cores, "
              << stack.total_count(BlockType::kL2Cache) << " l2 banks)\n"
              << "  cavities: " << stack.cavity_count() << "\n"
              << "  fingerprint: " << fp << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << stack_path << ": " << e.what() << "\n";
    return 2;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string command = argv[1];
  Args args(argc - 2, argv + 2);
  try {
    liquid3d::fault_injection::arm_from_env();
    liquid3d::obs::init_from_env();
    if (command == "plan") return cmd_plan(args);
    if (command == "run") return cmd_run(args);
    if (command == "merge") return cmd_merge(args);
    if (command == "single") return cmd_single(args);
    if (command == "supervise") return cmd_supervise(args);
    if (command == "validate") return cmd_validate(args);
    std::cerr << "unknown command '" << command << "'\n";
    return usage(argv[0]);
  } catch (const std::exception& e) {
    std::cerr << "sweep_worker " << command << ": " << e.what() << "\n";
    return 1;
  }
}
