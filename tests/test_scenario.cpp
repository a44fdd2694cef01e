// Scenario layer (sim/scenario.hpp): named cell specs, registry, CSV
// serialization, scenario binding, and the deterministic per-cell seed mix.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "geom/stack_spec.hpp"
#include "sim/scenario.hpp"
#include "sim/session.hpp"

namespace liquid3d {
namespace {

TEST(Scenario, PaperGridMatchesFig6Order) {
  const std::vector<ScenarioSpec> grid = paper_scenario_grid();
  ASSERT_EQ(grid.size(), 7u);
  EXPECT_EQ(grid[0].name, "lb-air");
  EXPECT_EQ(grid[0].display_label(), "LB (Air)");
  EXPECT_EQ(grid[3].name, "lb-max");
  EXPECT_EQ(grid[3].display_label(), "LB (Max)");
  EXPECT_EQ(grid[6].name, "talb-var");
  EXPECT_EQ(grid[6].display_label(), "TALB (Var)");
  for (const ScenarioSpec& s : grid) {
    EXPECT_FALSE(s.valve_network);
    EXPECT_TRUE(s.skew.empty());
  }
}

TEST(Scenario, EnumNamesRoundTrip) {
  for (Policy p : {Policy::kLoadBalancing, Policy::kReactiveMigration, Policy::kTalb}) {
    EXPECT_EQ(policy_from_name(policy_name(p)), p);
  }
  for (CoolingMode m :
       {CoolingMode::kAir, CoolingMode::kLiquidMax, CoolingMode::kLiquidVar}) {
    EXPECT_EQ(cooling_from_name(cooling_name(m)), m);
  }
  EXPECT_THROW((void)policy_from_name("bogus"), ConfigError);
  EXPECT_THROW((void)cooling_from_name("bogus"), ConfigError);
}

TEST(Scenario, CsvRowRoundTrips) {
  ScenarioSpec s;
  s.name = "lb-max-valved/hot-corner";
  s.policy = Policy::kLoadBalancing;
  s.cooling = CoolingMode::kLiquidMax;
  s.valve_network = true;
  s.skew = "hot-corner";
  s.label = "LB (Max) [valved]";
  s.stack = "niagara-4layer";

  const std::vector<std::string> row = to_csv_row(s);
  ASSERT_EQ(row.size(), scenario_csv_header().size());
  const ScenarioSpec back = scenario_from_csv_row(row);
  EXPECT_EQ(back.name, s.name);
  EXPECT_EQ(back.policy, s.policy);
  EXPECT_EQ(back.cooling, s.cooling);
  EXPECT_EQ(back.valve_network, s.valve_network);
  EXPECT_EQ(back.skew, s.skew);
  EXPECT_EQ(back.label, s.label);
  EXPECT_EQ(back.stack, s.stack);

  EXPECT_THROW((void)scenario_from_csv_row({"too", "short"}), ConfigError);
  std::vector<std::string> bad = row;
  bad[3] = "yes";
  EXPECT_THROW((void)scenario_from_csv_row(bad), ConfigError);
  std::vector<std::string> too_long = row;
  too_long.push_back("auto");  // 8 columns, as rows that carried a solver had
  EXPECT_THROW((void)scenario_from_csv_row(too_long), ConfigError);
}

TEST(Scenario, MalformedRowsNameTheOffendingColumn) {
  // Shard/plan readers prepend the row number; the scenario parser itself
  // must pinpoint the column, so the combined diagnostic reads
  // "<file> row N: column 'policy': unknown policy name 'bogus'".
  auto error_of = [](std::vector<std::string> row) -> std::string {
    try {
      (void)scenario_from_csv_row(row);
      return "";
    } catch (const ConfigError& e) {
      return e.what();
    }
  };
  const std::vector<std::string> good = {"cell", "talb", "var", "0",
                                         "",     "",     ""};
  ASSERT_EQ(error_of(good), "");

  std::vector<std::string> bad = good;
  bad[1] = "bogus";
  EXPECT_NE(error_of(bad).find("column 'policy'"), std::string::npos)
      << error_of(bad);
  EXPECT_NE(error_of(bad).find("bogus"), std::string::npos);

  bad = good;
  bad[2] = "steam";
  EXPECT_NE(error_of(bad).find("column 'cooling'"), std::string::npos);

  bad = good;
  bad[3] = "maybe";
  EXPECT_NE(error_of(bad).find("column 'valves'"), std::string::npos);

  // Arity failures spell out expected vs. actual counts.
  const std::string arity = error_of({"too", "short"});
  EXPECT_NE(arity.find("got 2"), std::string::npos) << arity;
  EXPECT_NE(arity.find("expected 7"), std::string::npos) << arity;
}

TEST(Scenario, LegacyRowsWithoutSolverColumnStillParse) {
  // Rows checkpointed before the solver and stack axes existed (6 columns)
  // must keep loading; the stack axis defaults to empty (built-in Niagara
  // geometry).
  const std::vector<std::string> legacy = {"talb-var", "talb", "var",
                                           "0",        "",     "TALB (Var)"};
  const ScenarioSpec s = scenario_from_csv_row(legacy);
  EXPECT_EQ(s.name, "talb-var");
  EXPECT_TRUE(s.stack.empty());
}

TEST(Scenario, GlobalRegistryServesPaperGridAndRejectsDuplicates) {
  ScenarioRegistry& reg = ScenarioRegistry::global();
  EXPECT_GE(reg.size(), 7u);
  const ScenarioSpec& talb_var = reg.at("talb-var");
  EXPECT_EQ(talb_var.policy, Policy::kTalb);
  EXPECT_EQ(talb_var.cooling, CoolingMode::kLiquidVar);
  EXPECT_EQ(reg.find("definitely-not-registered"), nullptr);
  EXPECT_THROW((void)reg.at("definitely-not-registered"), ConfigError);

  ScenarioSpec dup = talb_var;
  EXPECT_THROW(reg.add(dup), ConfigError);
  ScenarioSpec unnamed;
  unnamed.name.clear();
  EXPECT_THROW(reg.add(unnamed), ConfigError);
}

TEST(Scenario, RegistryPointersSurviveGrowth) {
  ScenarioRegistry reg;
  ScenarioSpec first;
  first.name = "first";
  reg.add(first);
  const ScenarioSpec* p = reg.find("first");
  for (int i = 0; i < 100; ++i) {
    ScenarioSpec s;
    s.name = "filler-" + std::to_string(i);
    reg.add(std::move(s));
  }
  EXPECT_EQ(reg.find("first"), p);  // deque storage: stable references
}

TEST(Scenario, ApplyBindsPolicyCoolingValvesAndSkew) {
  SimulationConfig cfg;
  cfg.layer_pairs = 1;

  ScenarioSpec s;
  s.name = "lb-max-valved/hot-corner";
  s.policy = Policy::kLoadBalancing;
  s.cooling = CoolingMode::kLiquidMax;
  s.valve_network = true;
  s.skew = "hot-corner";
  apply_scenario(s, cfg);
  EXPECT_EQ(cfg.policy, Policy::kLoadBalancing);
  EXPECT_EQ(cfg.cooling, CoolingMode::kLiquidMax);
  EXPECT_TRUE(cfg.manager.valve_network);
  ASSERT_EQ(cfg.core_bias.size(), 8u);
  EXPECT_GT(cfg.core_bias[0], cfg.core_bias[7]);
  EXPECT_EQ(cfg.label, "LB (Max)");

  // Re-binding a uniform scenario clears the bias again.
  ScenarioSpec uniform;
  uniform.name = "talb-var";
  apply_scenario(uniform, cfg);
  EXPECT_TRUE(cfg.core_bias.empty());
  EXPECT_FALSE(cfg.manager.valve_network);

  ScenarioSpec bad_skew;
  bad_skew.name = "x";
  bad_skew.policy = Policy::kLoadBalancing;
  bad_skew.skew = "no-such-skew";
  EXPECT_THROW(apply_scenario(bad_skew, cfg), ConfigError);

  ScenarioSpec air_valves;
  air_valves.name = "y";
  air_valves.cooling = CoolingMode::kAir;
  air_valves.policy = Policy::kLoadBalancing;
  air_valves.valve_network = true;
  EXPECT_THROW(apply_scenario(air_valves, cfg), ConfigError);
}

TEST(Scenario, ApplyBindsStackAxis) {
  SimulationConfig cfg;
  ScenarioSpec s;
  s.name = "talb-var@4layer";
  s.policy = Policy::kTalb;
  s.cooling = CoolingMode::kLiquidVar;
  s.stack = "niagara-4layer";
  apply_scenario(s, cfg);
  ASSERT_TRUE(cfg.stack.has_value());
  EXPECT_EQ(make_simulation_stack(cfg).layer_count(), 4u);

  // Skew bias vectors scale to the resolved stack's core count: hot-corner
  // on the 4-layer system biases all 16 cores, not the default 8.
  s.skew = "hot-corner";
  apply_scenario(s, cfg);
  EXPECT_EQ(cfg.core_bias.size(), 16u);

  // Embedded specs (the suite's decoded #suite metadata) win over presets
  // and file lookups when the axis string matches an embedded name.
  StackSpec embedded = niagara_stack_spec(1, CoolingType::kLiquid);
  embedded.name = "my-stack";
  ScenarioSpec via_embedded;
  via_embedded.name = "talb-var@mine";
  via_embedded.policy = Policy::kTalb;
  via_embedded.cooling = CoolingMode::kLiquidVar;
  via_embedded.stack = "my-stack";
  apply_scenario(via_embedded, cfg, {embedded});
  ASSERT_TRUE(cfg.stack.has_value());
  EXPECT_EQ(cfg.stack->name, "my-stack");

  // An unresolvable axis is a configuration error.
  ScenarioSpec bad = via_embedded;
  bad.stack = "no-such-stack";
  EXPECT_THROW(apply_scenario(bad, cfg), ConfigError);
}

TEST(Scenario, CellSeedIgnoresStackAxis) {
  // The stack axis is seed-neutral: comparing geometries replays the
  // identical workload trace on every arm, like the valve/skew axes.
  const BenchmarkSpec gzip = *find_benchmark("gzip");
  ScenarioSpec uniform;
  uniform.policy = Policy::kTalb;
  uniform.cooling = CoolingMode::kLiquidVar;
  ScenarioSpec stacked = uniform;
  stacked.stack = "niagara-4layer";
  EXPECT_EQ(cell_seed(7, uniform, gzip), cell_seed(7, stacked, gzip));
}

TEST(Scenario, CellSeedDependsOnIdentityOnly) {
  const BenchmarkSpec gzip = *find_benchmark("gzip");
  const BenchmarkSpec web = *find_benchmark("Web-med");

  const std::uint64_t a =
      cell_seed(7, Policy::kLoadBalancing, CoolingMode::kAir, gzip);
  // Deterministic.
  EXPECT_EQ(a, cell_seed(7, Policy::kLoadBalancing, CoolingMode::kAir, gzip));
  // Every identity axis moves the seed...
  EXPECT_NE(a, cell_seed(8, Policy::kLoadBalancing, CoolingMode::kAir, gzip));
  EXPECT_NE(a, cell_seed(7, Policy::kTalb, CoolingMode::kAir, gzip));
  EXPECT_NE(a, cell_seed(7, Policy::kLoadBalancing, CoolingMode::kLiquidMax, gzip));
  EXPECT_NE(a, cell_seed(7, Policy::kLoadBalancing, CoolingMode::kAir, web));

  // ...but the valve/skew axes deliberately do not: a delivery comparison
  // must replay the identical workload trace on both arms.
  ScenarioSpec uniform;
  uniform.policy = Policy::kLoadBalancing;
  uniform.cooling = CoolingMode::kLiquidMax;
  ScenarioSpec valved = uniform;
  valved.valve_network = true;
  valved.skew = "hot-corner";
  EXPECT_EQ(cell_seed(7, uniform, gzip), cell_seed(7, valved, gzip));
}

TEST(Scenario, CellSeedsAreDistinctAcrossTheGrid) {
  std::vector<std::uint64_t> seeds;
  for (const ScenarioSpec& sc : paper_scenario_grid()) {
    for (const BenchmarkSpec& wl : table2_benchmarks()) {
      seeds.push_back(cell_seed(7, sc, wl));
    }
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end())
      << "56-cell paper grid produced a seed collision";
}

}  // namespace
}  // namespace liquid3d
