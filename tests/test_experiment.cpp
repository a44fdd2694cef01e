// Evaluation-grid helper (sim/experiment.hpp).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sim/experiment.hpp"

namespace liquid3d {
namespace {

TEST(Experiment, PaperPolicyGridMatchesFig6Order) {
  const std::vector<ScenarioSpec> grid = paper_scenario_grid();
  ASSERT_EQ(grid.size(), 7u);
  const char* labels[] = {"LB (Air)", "Mig (Air)", "TALB (Air)", "LB (Max)",
                          "Mig (Max)", "TALB (Max)", "TALB (Var)"};
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(grid[i].display_label(), labels[i]);
  }
}

/// A paper-grid cell by name ("lb-air", "talb-var", ...).
const ScenarioSpec& cell(const char* name) {
  return ScenarioRegistry::global().at(name);
}

SuiteConfig tiny_suite() {
  SuiteConfig sc;
  sc.duration = SimTime::from_s(6);
  sc.base.thermal.grid_rows = 10;
  sc.base.thermal.grid_cols = 11;
  return sc;
}

TEST(Experiment, SuiteRunsAndAggregates) {
  ExperimentSuite suite(tiny_suite());
  const std::vector<ScenarioSpec> scenarios = {cell("lb-air"), cell("talb-var")};
  const std::vector<BenchmarkSpec> workloads = {*find_benchmark("gzip"),
                                                *find_benchmark("Web-med")};
  const auto results = suite.run(scenarios, workloads);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].label, "LB (Air)");
  EXPECT_EQ(results[1].label, "TALB (Var)");
  ASSERT_EQ(results[0].per_workload.size(), 2u);
  EXPECT_GT(results[0].total_chip_energy(), 0.0);
  EXPECT_EQ(results[0].total_pump_energy(), 0.0);  // air has no pump
  EXPECT_GT(results[1].total_pump_energy(), 0.0);
  EXPECT_GE(results[0].max_hotspot_percent(), results[0].mean_hotspot_percent());
}

TEST(Experiment, CharacterizationsAreSharedAcrossCells) {
  ExperimentSuite suite(tiny_suite());
  const BenchmarkSpec wl = *find_benchmark("gzip");
  const SimulationConfig a = suite.make_config(cell("talb-var"), wl);
  const SimulationConfig b = suite.make_config(cell("talb-max"), wl);
  EXPECT_EQ(a.flow_lut.get(), b.flow_lut.get());  // same shared object
  EXPECT_NE(a.flow_lut, nullptr);
  EXPECT_EQ(a.talb_weights.get(), b.talb_weights.get());
}

TEST(Experiment, SeedVariesPerWorkload) {
  ExperimentSuite suite(tiny_suite());
  const SimulationConfig a = suite.make_config(cell("lb-air"), *find_benchmark("gzip"));
  const SimulationConfig b = suite.make_config(cell("lb-air"), *find_benchmark("Web-med"));
  EXPECT_NE(a.seed, b.seed);
}

TEST(Experiment, SeedVariesPerPolicyCell) {
  // Cells of the same workload under different policies used to share one
  // RNG stream; the cell_seed mix separates every (policy, cooling) cell.
  ExperimentSuite suite(tiny_suite());
  const BenchmarkSpec wl = *find_benchmark("gzip");
  const SimulationConfig lb = suite.make_config(cell("lb-air"), wl);
  const SimulationConfig mig = suite.make_config(cell("mig-air"), wl);
  EXPECT_NE(lb.seed, mig.seed);
}

void expect_same_result(const SimulationResult& a, const SimulationResult& b) {
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.benchmark, b.benchmark);
  EXPECT_EQ(a.avg_tmax, b.avg_tmax);
  EXPECT_EQ(a.chip_energy_j, b.chip_energy_j);
  EXPECT_EQ(a.pump_energy_j, b.pump_energy_j);
  EXPECT_EQ(a.throughput_per_s, b.throughput_per_s);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.hotspot_percent, b.hotspot_percent);
}

TEST(Experiment, CellResultsInvariantUnderGridReordering) {
  // A cell's seed (and therefore its result) depends only on its identity,
  // never on its position in the sweep — the property sharding and
  // checkpointing rely on.
  SuiteConfig sc = tiny_suite();
  sc.duration = SimTime::from_s(3);
  sc.base.thermal.grid_rows = 8;
  sc.base.thermal.grid_cols = 9;

  const std::vector<ScenarioSpec> order_a = {cell("lb-air"), cell("mig-air")};
  const std::vector<ScenarioSpec> order_b = {order_a[1], order_a[0]};
  const std::vector<BenchmarkSpec> wl_a = {*find_benchmark("gzip"),
                                           *find_benchmark("Web-med")};
  const std::vector<BenchmarkSpec> wl_b = {wl_a[1], wl_a[0]};

  ExperimentSuite suite_a(sc);
  ExperimentSuite suite_b(sc);
  const auto res_a = suite_a.run(order_a, wl_a);
  const auto res_b = suite_b.run(order_b, wl_b);
  ASSERT_EQ(res_a.size(), 2u);
  ASSERT_EQ(res_b.size(), 2u);
  // Match cells by identity: summary i of run A is summary (1-i) of run B,
  // with workloads likewise swapped.
  for (std::size_t p = 0; p < 2; ++p) {
    for (std::size_t w = 0; w < 2; ++w) {
      SCOPED_TRACE(res_a[p].label + " / " + res_a[p].per_workload[w].benchmark);
      expect_same_result(res_a[p].per_workload[w],
                         res_b[1 - p].per_workload[1 - w]);
    }
  }
}

TEST(Experiment, SuiteMatchesSoloSessions) {
  // The suite runs its cells as lockstep slices on its pool; each cell's
  // result equals a solo session of the same configuration.
  SuiteConfig sc = tiny_suite();
  sc.duration = SimTime::from_s(3);
  sc.worker_threads = 2;
  const std::vector<ScenarioSpec> scenarios = {cell("lb-max"), cell("lb-air")};
  const std::vector<BenchmarkSpec> workloads = {*find_benchmark("gzip"),
                                                *find_benchmark("Web-med")};

  ExperimentSuite suite(sc);
  const auto results = suite.run(scenarios, workloads);
  ASSERT_EQ(results.size(), scenarios.size());
  for (std::size_t p = 0; p < results.size(); ++p) {
    for (std::size_t w = 0; w < workloads.size(); ++w) {
      SCOPED_TRACE(results[p].label);
      expect_same_result(
          results[p].per_workload[w],
          SimulationSession(suite.make_config(scenarios[p], workloads[w])).run());
    }
  }
}

TEST(Experiment, SkewScenariosMatchSystemShape) {
  const auto two_layer = skewed_workload_scenarios(1);
  ASSERT_EQ(two_layer.size(), 2u);
  EXPECT_EQ(two_layer[0].name, "hot-upper-die");
  EXPECT_EQ(two_layer[0].core_bias.size(), 8u);
  EXPECT_GT(two_layer[0].core_bias[7], two_layer[0].core_bias[0]);
  EXPECT_EQ(two_layer[1].name, "hot-corner");
  EXPECT_GT(two_layer[1].core_bias[0], two_layer[1].core_bias[7]);
  const auto four_layer = skewed_workload_scenarios(2);
  EXPECT_EQ(four_layer[0].core_bias.size(), 16u);
  // 4-layer: the entire upper core die (second half of the core sites).
  EXPECT_GT(four_layer[0].core_bias[8], four_layer[0].core_bias[7]);
}

TEST(Experiment, ValveNetworkBeatsUniformFlowOnSkewedLoad) {
  // The acceptance experiment: same skewed workload, same pump pinned at
  // max (equal total delivered flow and equal pump energy), only the
  // per-cavity distribution differs.  Steering flow toward the hot cavities
  // must lower T_max.
  SuiteConfig sc = tiny_suite();
  sc.duration = SimTime::from_s(10);
  ExperimentSuite suite(sc);
  const SkewScenario scenario = skewed_workload_scenarios(sc.layer_pairs)[0];
  const FlowComparisonResult r =
      suite.run_flow_comparison(scenario, *find_benchmark("Web-med"));

  EXPECT_EQ(r.scenario, "hot-upper-die");
  // Equal total delivered flow -> identical pump energy by construction.
  EXPECT_DOUBLE_EQ(r.valved.pump_energy_j, r.uniform.pump_energy_j);
  EXPECT_EQ(r.uniform.valve_transitions, 0u);
  EXPECT_DOUBLE_EQ(r.uniform.avg_flow_skew, 1.0);
  // The valve network actually acted...
  EXPECT_GT(r.valved.valve_transitions, 0u);
  EXPECT_GT(r.valved.avg_flow_skew, 1.0);
  // ...and cooled the stack at the same total flow.
  EXPECT_LT(r.valved.avg_tmax, r.uniform.avg_tmax);
}

TEST(Experiment, BaselineLookup) {
  PolicySummary lb_air;
  lb_air.label = "LB (Air)";
  PolicySummary var;
  var.label = "TALB (Var)";
  const std::vector<PolicySummary> rs = {lb_air, var};
  EXPECT_EQ(&find_baseline(rs), &rs[0]);
  EXPECT_THROW((void)find_baseline(rs, "nonexistent"), ConfigError);
}

}  // namespace
}  // namespace liquid3d
