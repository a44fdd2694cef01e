#include "sim/scenario.hpp"

#include "common/error.hpp"

namespace liquid3d {

std::vector<SkewScenario> skewed_workload_scenarios(std::size_t layer_pairs) {
  LIQUID3D_REQUIRE(layer_pairs >= 1, "need at least one layer pair");
  return skewed_workload_scenarios_for_cores(8 * layer_pairs);
}

std::vector<SkewScenario> skewed_workload_scenarios_for_cores(
    std::size_t core_count) {
  LIQUID3D_REQUIRE(core_count >= 2, "skew scenarios need at least two cores");
  constexpr double kHotBias = 6.0;

  // Core sites enumerate layer-major: the second half of the core list is
  // the upper core die (4-layer) or the top core row (2-layer).
  SkewScenario upper{"hot-upper-die", std::vector<double>(core_count, 1.0)};
  for (std::size_t c = core_count / 2; c < core_count; ++c) {
    upper.core_bias[c] = kHotBias;
  }

  SkewScenario corner{"hot-corner", std::vector<double>(core_count, 1.0)};
  corner.core_bias[0] = kHotBias;
  corner.core_bias[1] = kHotBias;
  return {std::move(upper), std::move(corner)};
}

std::string ScenarioSpec::display_label() const {
  return label.empty() ? policy_label(policy, cooling) : label;
}

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::kLoadBalancing: return "lb";
    case Policy::kReactiveMigration: return "mig";
    case Policy::kTalb: return "talb";
  }
  return "?";
}

const char* cooling_name(CoolingMode m) {
  switch (m) {
    case CoolingMode::kAir: return "air";
    case CoolingMode::kLiquidMax: return "max";
    case CoolingMode::kLiquidVar: return "var";
  }
  return "?";
}

Policy policy_from_name(std::string_view s) {
  if (s == "lb") return Policy::kLoadBalancing;
  if (s == "mig") return Policy::kReactiveMigration;
  if (s == "talb") return Policy::kTalb;
  throw ConfigError("unknown policy name '" + std::string(s) + "'");
}

CoolingMode cooling_from_name(std::string_view s) {
  if (s == "air") return CoolingMode::kAir;
  if (s == "max") return CoolingMode::kLiquidMax;
  if (s == "var") return CoolingMode::kLiquidVar;
  throw ConfigError("unknown cooling name '" + std::string(s) + "'");
}

const std::vector<std::string>& scenario_csv_header() {
  static const std::vector<std::string> header = {
      "name", "policy", "cooling", "valves", "skew", "label", "stack"};
  return header;
}

std::vector<std::string> to_csv_row(const ScenarioSpec& s) {
  return {s.name,   policy_name(s.policy), cooling_name(s.cooling),
          s.valve_network ? "1" : "0", s.skew, s.label, s.stack};
}

ScenarioSpec scenario_from_csv_row(const std::vector<std::string>& row) {
  // The stack column was appended in a later schema revision; rows written
  // before it (6 columns) still parse with the default geometry.
  const std::vector<std::string>& header = scenario_csv_header();
  LIQUID3D_REQUIRE(
      row.size() == header.size() || row.size() == header.size() - 1,
      "scenario row arity mismatch: got " + std::to_string(row.size()) +
          " columns, expected " + std::to_string(header.size()) +
          " (or legacy " + std::to_string(header.size() - 1) + ")");
  // Annotate parse failures with the offending column's header name, so a
  // shard/plan reader can report "row 12, column 'policy'" instead of a
  // bare failure.
  auto in_column = [&](std::size_t col, auto&& parse) -> decltype(parse()) {
    try {
      return parse();
    } catch (const ConfigError& e) {
      throw ConfigError("column '" + header[col] + "': " + e.what());
    }
  };
  ScenarioSpec s;
  s.name = row[0];
  s.policy = in_column(1, [&] { return policy_from_name(row[1]); });
  s.cooling = in_column(2, [&] { return cooling_from_name(row[2]); });
  s.valve_network = in_column(3, [&]() -> bool {
    if (row[3] == "1") return true;
    if (row[3] == "0") return false;
    throw ConfigError("must be 0 or 1, got '" + row[3] + "'");
  });
  s.skew = row[4];
  s.label = row[5];
  if (row.size() > 6) s.stack = row[6];
  return s;
}

void apply_scenario(const ScenarioSpec& s, SimulationConfig& cfg,
                    const std::vector<StackSpec>& stacks) {
  LIQUID3D_REQUIRE(!s.valve_network || s.cooling != CoolingMode::kAir,
                   "valve-network delivery requires liquid cooling");
  cfg.policy = s.policy;
  cfg.cooling = s.cooling;
  cfg.manager.valve_network = s.valve_network;
  cfg.label = s.display_label();
  if (!s.stack.empty()) {
    const CoolingType type = s.cooling == CoolingMode::kAir
                                 ? CoolingType::kAir
                                 : CoolingType::kLiquid;
    cfg.stack = resolve_stack_axis(s.stack, type, stacks);
  }
  if (!s.skew.empty()) {
    // Resolve against the configured system's actual core count so skews
    // work on custom stacks, not just the 8-cores-per-pair presets.
    const std::size_t cores =
        make_stack(resolved_stack_spec(cfg)).total_count(BlockType::kCore);
    bool found = false;
    for (SkewScenario& skew : skewed_workload_scenarios_for_cores(cores)) {
      if (skew.name == s.skew) {
        cfg.core_bias = std::move(skew.core_bias);
        found = true;
        break;
      }
    }
    LIQUID3D_REQUIRE(found, "unknown skew scenario '" + s.skew + "'");
  } else {
    cfg.core_bias.clear();
  }
}

std::vector<ScenarioSpec> paper_scenario_grid() {
  auto cell = [](Policy p, CoolingMode m) {
    ScenarioSpec s;
    s.name = std::string(policy_name(p)) + "-" + cooling_name(m);
    s.policy = p;
    s.cooling = m;
    return s;
  };
  return {
      cell(Policy::kLoadBalancing, CoolingMode::kAir),
      cell(Policy::kReactiveMigration, CoolingMode::kAir),
      cell(Policy::kTalb, CoolingMode::kAir),
      cell(Policy::kLoadBalancing, CoolingMode::kLiquidMax),
      cell(Policy::kReactiveMigration, CoolingMode::kLiquidMax),
      cell(Policy::kTalb, CoolingMode::kLiquidMax),
      cell(Policy::kTalb, CoolingMode::kLiquidVar),
  };
}

namespace {

/// SplitMix64 finalizer (the same mix xoshiro's recommended seeder uses).
std::uint64_t mix64(std::uint64_t z) {
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z;
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

std::uint64_t cell_seed(std::uint64_t suite_seed, Policy policy,
                        CoolingMode cooling, const BenchmarkSpec& workload) {
  constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  std::uint64_t h = mix64(suite_seed);
  h = mix64(h ^ (static_cast<std::uint64_t>(policy) * kGolden +
                 static_cast<std::uint64_t>(cooling) + 1));
  return mix64(h ^ (fnv1a(workload.name) + static_cast<std::uint64_t>(workload.id)));
}

std::uint64_t cell_seed(std::uint64_t suite_seed, const ScenarioSpec& scenario,
                        const BenchmarkSpec& workload) {
  return cell_seed(suite_seed, scenario.policy, scenario.cooling, workload);
}

ScenarioRegistry& ScenarioRegistry::global() {
  static ScenarioRegistry registry = [] {
    ScenarioRegistry r;
    for (ScenarioSpec& s : paper_scenario_grid()) r.add(std::move(s));
    return r;
  }();
  return registry;
}

void ScenarioRegistry::add(ScenarioSpec spec) {
  LIQUID3D_REQUIRE(!spec.name.empty(), "scenario needs a registry name");
  LIQUID3D_REQUIRE(find(spec.name) == nullptr,
                   "scenario '" + spec.name + "' is already registered");
  specs_.push_back(std::move(spec));
}

const ScenarioSpec* ScenarioRegistry::find(std::string_view name) const {
  for (const ScenarioSpec& s : specs_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const ScenarioSpec& ScenarioRegistry::at(std::string_view name) const {
  const ScenarioSpec* s = find(name);
  if (s == nullptr) {
    throw ConfigError("scenario '" + std::string(name) + "' is not registered");
  }
  return *s;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(specs_.size());
  for (const ScenarioSpec& s : specs_) out.push_back(s.name);
  return out;
}

}  // namespace liquid3d
