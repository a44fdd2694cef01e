#include "sweep/plan.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <istream>
#include <map>
#include <sstream>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/parse.hpp"
#include "geom/stack_spec.hpp"

namespace liquid3d {

const char* to_string(ShardStrategy s) {
  switch (s) {
    case ShardStrategy::kRoundRobin: return "round-robin";
    case ShardStrategy::kCostWeighted: return "cost";
  }
  return "?";
}

ShardStrategy shard_strategy_from_name(std::string_view s) {
  if (s == "round-robin") return ShardStrategy::kRoundRobin;
  if (s == "cost") return ShardStrategy::kCostWeighted;
  throw ConfigError("unknown shard strategy '" + std::string(s) + "'");
}

SuiteConfig to_suite_config(const SweepGridSpec& grid) {
  SuiteConfig sc;
  sc.layer_pairs = grid.layer_pairs;
  sc.duration = grid.duration;
  sc.seed = grid.seed;
  sc.dpm_enabled = grid.dpm_enabled;
  if (grid.grid_rows != 0) sc.base.thermal.grid_rows = grid.grid_rows;
  if (grid.grid_cols != 0) sc.base.thermal.grid_cols = grid.grid_cols;
  sc.stacks = grid.stacks;
  return sc;
}

std::vector<SweepCell> expand_grid(const SweepGridSpec& grid) {
  std::vector<SweepCell> cells;
  cells.reserve(grid.cell_count());
  for (std::size_t s = 0; s < grid.scenarios.size(); ++s) {
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
      SweepCell cell;
      cell.index = s * grid.workloads.size() + w;
      cell.scenario = grid.scenarios[s];
      cell.workload = grid.workloads[w];
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

namespace {

/// Estimated flops per row of one banded-LU step at half-bandwidth b: ~4b
/// of forward and back substitution (one multiply-add per band entry of L
/// and of U) plus 2b^2 / kFactorAmortization of factorization (a b x b
/// rank-1 update per pivot; one factorization serves the ~hundreds of
/// solves a slot's key sees).
double lu_step_flops_per_row(std::size_t half_bandwidth) {
  // Solves served by one factorization before its key changes — transient
  // runs reuse a factor for thousands of substeps at a fixed flow, so this
  // is a deliberately conservative amortization.
  constexpr double kFactorAmortization = 200.0;
  const double b = static_cast<double>(half_bandwidth);
  return 4.0 * b + 2.0 * b * b / kFactorAmortization;
}

}  // namespace

double estimate_cell_cost(const SweepGridSpec& grid,
                          const ScenarioSpec& scenario) {
  // Geometry only — no thermal model is built.  Binding through
  // apply_scenario picks up the scenario's stack axis, so custom
  // geometries cost-balance by their real size.
  SimulationConfig cfg = to_suite_config(grid).base;
  cfg.layer_pairs = grid.layer_pairs;
  apply_scenario(scenario, cfg, grid.stacks);
  const Stack3D stack = make_simulation_stack(cfg);
  const std::size_t layers = stack.layer_count();
  const double rows = static_cast<double>(cfg.thermal.grid_rows);
  const double cols = static_cast<double>(cfg.thermal.grid_cols);
  const double n = static_cast<double>(layers) * rows * cols;
  const std::size_t b = cfg.thermal.grid_cols * layers;
  const double per_row = lu_step_flops_per_row(b);
  // Fluid march: one sweep over every cavity cell per substep.
  const double fluid = static_cast<double>(stack.cavity_count()) * rows * cols;

  const SuiteConfig sc = to_suite_config(grid);
  const double ticks =
      static_cast<double>(grid.duration.as_ms()) /
      static_cast<double>(sc.base.sampling_interval.as_ms());
  const double substeps = static_cast<double>(sc.base.thermal_substeps);
  return ticks * substeps * (n * per_row + fluid);
}

std::vector<std::vector<SweepCell>> partition_cells(
    const SweepGridSpec& grid, std::vector<SweepCell> cells,
    std::size_t shard_count, ShardStrategy strategy) {
  LIQUID3D_REQUIRE(shard_count >= 1, "need at least one shard");
  std::vector<std::vector<SweepCell>> shards(shard_count);
  if (strategy == ShardStrategy::kRoundRobin) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      shards[i % shard_count].push_back(std::move(cells[i]));
    }
    return shards;
  }

  // Cost-weighted: LPT greedy.  The cost depends only on the scenario (all
  // workloads run the same tick count), so cells of one scenario spread
  // across shards exactly like round-robin would, but scenario mixes with
  // asymmetric solve costs (deep stacks, fine grids) balance
  // by estimated wall-clock instead of by count.  Deterministic: stable
  // sort by (cost desc, index asc), ties in shard load break toward the
  // lowest shard index.
  std::map<std::string, double> scenario_cost;  // one geometry build per scenario
  std::vector<double> cost(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto [it, inserted] =
        scenario_cost.try_emplace(cells[i].scenario.name, 0.0);
    if (inserted) it->second = estimate_cell_cost(grid, cells[i].scenario);
    cost[i] = it->second;
  }
  std::vector<std::size_t> order(cells.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Plain sort is fully deterministic here: grid indices are unique, so
  // (cost desc, index asc) is a total order — no stability needed.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (cost[a] != cost[b]) return cost[a] > cost[b];
    return cells[a].index < cells[b].index;
  });
  std::vector<double> load(shard_count, 0.0);
  for (const std::size_t i : order) {
    const std::size_t target = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    load[target] += cost[i];
    shards[target].push_back(std::move(cells[i]));
  }
  // Canonical in-shard order: by grid index, so shard files (and journals)
  // are reproducible byte-for-byte.
  for (std::vector<SweepCell>& shard : shards) {
    std::sort(shard.begin(), shard.end(),
              [](const SweepCell& a, const SweepCell& b) {
                return a.index < b.index;
              });
  }
  return shards;
}

namespace {

const std::vector<std::string>& sweep_cell_csv_header() {
  static const std::vector<std::string> header = [] {
    std::vector<std::string> h = {"cell"};
    const std::vector<std::string>& scenario = scenario_csv_header();
    h.insert(h.end(), scenario.begin(), scenario.end());
    h.emplace_back("workload");
    return h;
  }();
  return header;
}

/// "#suite key=value ..." metadata line.
void parse_suite_comment(const std::string& line, SweepGridSpec& grid) {
  std::istringstream tokens(line.substr(std::string("#suite").size()));
  std::string token;
  while (tokens >> token) {
    const std::size_t eq = token.find('=');
    LIQUID3D_REQUIRE(eq != std::string::npos,
                     "malformed #suite token '" + token + "'");
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "layer_pairs") {
      grid.layer_pairs = static_cast<std::size_t>(parse_u64(value, key));
    } else if (key == "duration_ms") {
      grid.duration = SimTime::from_ms(
          static_cast<std::int64_t>(parse_u64(value, key)));
    } else if (key == "seed") {
      grid.seed = parse_u64(value, key);
    } else if (key == "dpm") {
      grid.dpm_enabled = parse_u64(value, key) != 0;
    } else if (key == "grid_rows") {
      grid.grid_rows = static_cast<std::size_t>(parse_u64(value, key));
    } else if (key == "grid_cols") {
      grid.grid_cols = static_cast<std::size_t>(parse_u64(value, key));
    } else if (key == "stack") {
      // One token per embedded spec; the whole stack file rides inside the
      // percent-encoded value.
      grid.stacks.push_back(decode_stack_spec(value, "#suite stack"));
    }
    // Unknown keys are ignored: newer planners stay readable.
  }
}

}  // namespace

void write_sweep_cells(std::ostream& out, const SweepGridSpec& grid,
                       const std::vector<SweepCell>& cells) {
  out << "#liquid3d-sweep v1\n";
  out << "#suite layer_pairs=" << grid.layer_pairs
      << " duration_ms=" << grid.duration.as_ms() << " seed=" << grid.seed
      << " dpm=" << (grid.dpm_enabled ? 1 : 0)
      << " grid_rows=" << grid.grid_rows << " grid_cols=" << grid.grid_cols;
  for (const StackSpec& spec : grid.stacks) {
    out << " stack=" << encode_stack_spec(spec);
  }
  out << "\n";
  out << to_csv_line(sweep_cell_csv_header());
  for (const SweepCell& cell : cells) {
    std::vector<std::string> row = {std::to_string(cell.index)};
    const std::vector<std::string> scenario = to_csv_row(cell.scenario);
    row.insert(row.end(), scenario.begin(), scenario.end());
    row.push_back(cell.workload);
    out << to_csv_line(row);
  }
}

SweepCellFile read_sweep_cells(std::istream& in, const std::string& source) {
  SweepCellFile file;
  auto fail = [&](std::size_t row_number, const std::string& msg) -> void {
    throw ConfigError(source + " row " + std::to_string(row_number) + ": " +
                      msg);
  };

  // Leading '#' comment lines carry the suite metadata; they are whole
  // physical lines, never part of a CSV record.
  std::size_t row_number = 0;
  while (in.peek() == '#') {
    std::string line;
    std::getline(in, line);
    ++row_number;
    if (line.rfind("#suite", 0) == 0) {
      try {
        parse_suite_comment(line, file.grid);
      } catch (const ConfigError& e) {
        fail(row_number, e.what());
      }
    }
  }

  // Accept the current header and the pre-stack legacy one (no "stack"
  // scenario column) — old plan/shard files and journals stay readable.
  const std::vector<std::string>& header = sweep_cell_csv_header();
  const std::vector<std::string> legacy_header = [&] {
    std::vector<std::string> h = header;
    h.erase(std::find(h.begin(), h.end(), "stack"));
    return h;
  }();
  std::vector<std::string> record;
  ++row_number;
  if (!read_csv_record(in, record) ||
      (record != header && record != legacy_header)) {
    fail(row_number, "missing or mismatched sweep header row");
  }
  const std::size_t arity = record.size();

  while (read_csv_record(in, record)) {
    ++row_number;
    if (record.size() != arity) {
      fail(row_number, "cell row arity mismatch: got " +
                           std::to_string(record.size()) +
                           " columns, expected " + std::to_string(arity));
    }
    SweepCell cell;
    try {
      cell.index = static_cast<std::size_t>(parse_u64(record[0], "column 'cell'"));
      cell.scenario = scenario_from_csv_row(std::vector<std::string>(
          record.begin() + 1, record.end() - 1));
    } catch (const ConfigError& e) {
      fail(row_number, e.what());
    }
    cell.workload = record.back();
    file.cells.push_back(std::move(cell));
  }

  // Reconstruct the grid axes: scenarios/workloads in order of first
  // appearance by grid index.  For a plan file this recovers the full grid;
  // duplicate indices are a corrupt plan.
  std::vector<const SweepCell*> by_index;
  by_index.reserve(file.cells.size());
  for (const SweepCell& c : file.cells) by_index.push_back(&c);
  std::sort(by_index.begin(), by_index.end(),
            [](const SweepCell* a, const SweepCell* b) {
              return a->index < b->index;
            });
  for (std::size_t i = 1; i < by_index.size(); ++i) {
    LIQUID3D_REQUIRE(by_index[i]->index != by_index[i - 1]->index,
                     source + ": duplicate cell index " +
                         std::to_string(by_index[i]->index));
  }
  for (const SweepCell* c : by_index) {
    const auto scenario_seen = [&] {
      for (const ScenarioSpec& s : file.grid.scenarios) {
        if (s.name == c->scenario.name) return true;
      }
      return false;
    }();
    if (!scenario_seen) file.grid.scenarios.push_back(c->scenario);
    if (std::find(file.grid.workloads.begin(), file.grid.workloads.end(),
                  c->workload) == file.grid.workloads.end()) {
      file.grid.workloads.push_back(c->workload);
    }
  }
  return file;
}

void resolve_grid_stacks(SweepGridSpec& grid) {
  for (const ScenarioSpec& s : grid.scenarios) {
    if (s.stack.empty() || is_stack_preset(s.stack)) continue;
    const CoolingType type = s.cooling == CoolingMode::kAir
                                 ? CoolingType::kAir
                                 : CoolingType::kLiquid;
    const bool embedded = [&] {
      for (const StackSpec& spec : grid.stacks) {
        if (spec.name == s.stack) return true;
      }
      return false;
    }();
    // resolve_stack_axis validates cooling compatibility either way; for a
    // file-path axis it also loads the file and renames the spec to the
    // axis string, so workers resolve it by name with no filesystem access.
    StackSpec spec = resolve_stack_axis(s.stack, type, grid.stacks);
    if (!embedded) grid.stacks.push_back(std::move(spec));
  }
}

std::vector<std::string> write_sweep_plan(const SweepGridSpec& grid_in,
                                          std::size_t shard_count,
                                          ShardStrategy strategy,
                                          const std::string& dir,
                                          const std::string& prefix) {
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  // Embed every file-referenced stack spec before anything is written: the
  // plan and every shard must be self-contained.
  SweepGridSpec grid = grid_in;
  resolve_grid_stacks(grid);
  const std::vector<SweepCell> cells = expand_grid(grid);
  const std::vector<std::vector<SweepCell>> shards =
      partition_cells(grid, cells, shard_count, strategy);

  auto write_file = [&](const std::string& path,
                        const std::vector<SweepCell>& rows) {
    std::ofstream out(path);
    LIQUID3D_REQUIRE(out.good(), "cannot open '" + path + "' for writing");
    write_sweep_cells(out, grid, rows);
    LIQUID3D_REQUIRE(out.good(), "write to '" + path + "' failed");
  };

  write_file(dir + "/" + prefix + "-plan.csv", cells);
  std::vector<std::string> shard_paths;
  shard_paths.reserve(shards.size());
  for (std::size_t k = 0; k < shards.size(); ++k) {
    char suffix[32];
    std::snprintf(suffix, sizeof suffix, "-shard-%03zu.csv", k);
    const std::string path = dir + "/" + prefix + suffix;
    write_file(path, shards[k]);
    shard_paths.push_back(path);
  }
  return shard_paths;
}

SweepCellFile read_sweep_file(const std::string& path) {
  std::ifstream in(path);
  LIQUID3D_REQUIRE(in.good(), "cannot open sweep file '" + path + "'");
  return read_sweep_cells(in, path);
}

}  // namespace liquid3d
