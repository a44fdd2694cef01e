#include "sim/experiment.hpp"

#include <algorithm>
#include <iterator>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "sim/batch_runner.hpp"

namespace liquid3d {

std::vector<PolicyConfig> paper_policy_grid() {
  return {
      {Policy::kLoadBalancing, CoolingMode::kAir},
      {Policy::kReactiveMigration, CoolingMode::kAir},
      {Policy::kTalb, CoolingMode::kAir},
      {Policy::kLoadBalancing, CoolingMode::kLiquidMax},
      {Policy::kReactiveMigration, CoolingMode::kLiquidMax},
      {Policy::kTalb, CoolingMode::kLiquidMax},
      {Policy::kTalb, CoolingMode::kLiquidVar},
  };
}

namespace {

ScenarioSpec scenario_of(PolicyConfig pc) {
  ScenarioSpec s;
  s.name = std::string(policy_name(pc.policy)) + "-" + cooling_name(pc.cooling);
  s.policy = pc.policy;
  s.cooling = pc.cooling;
  return s;
}

double mean_over(const std::vector<SimulationResult>& rs,
                 double (SimulationResult::*field)) {
  double acc = 0.0;
  for (const SimulationResult& r : rs) acc += r.*field;
  return rs.empty() ? 0.0 : acc / static_cast<double>(rs.size());
}

}  // namespace

double PolicySummary::mean_hotspot_percent() const {
  return mean_over(per_workload, &SimulationResult::hotspot_percent);
}
double PolicySummary::max_hotspot_percent() const {
  double best = 0.0;
  for (const SimulationResult& r : per_workload)
    best = std::max(best, r.hotspot_percent);
  return best;
}
double PolicySummary::mean_above_target_percent() const {
  return mean_over(per_workload, &SimulationResult::above_target_percent);
}
double PolicySummary::mean_gradient_percent() const {
  return mean_over(per_workload, &SimulationResult::spatial_gradient_percent);
}
double PolicySummary::mean_cycles_per_1000() const {
  return mean_over(per_workload, &SimulationResult::thermal_cycles_per_1000);
}
double PolicySummary::total_chip_energy() const {
  double acc = 0.0;
  for (const SimulationResult& r : per_workload) acc += r.chip_energy_j;
  return acc;
}
double PolicySummary::total_pump_energy() const {
  double acc = 0.0;
  for (const SimulationResult& r : per_workload) acc += r.pump_energy_j;
  return acc;
}
double PolicySummary::total_throughput() const {
  double acc = 0.0;
  for (const SimulationResult& r : per_workload) acc += r.throughput_per_s;
  return acc;
}

ExperimentSuite::ExperimentSuite(SuiteConfig cfg) : cfg_(std::move(cfg)) {}

SimulationConfig ExperimentSuite::make_config(const ScenarioSpec& scenario,
                                              const BenchmarkSpec& workload) {
  SimulationConfig cfg = cfg_.base;
  cfg.layer_pairs = cfg_.layer_pairs;
  apply_scenario(scenario, cfg, cfg_.stacks);
  cfg.benchmark = workload;
  cfg.duration = cfg_.duration;
  cfg.seed = cell_seed(cfg_.seed, scenario, workload);
  cfg.dpm.enabled = cfg_.dpm_enabled;

  // Attach the shared characterization artifacts: every cell of one system
  // resolves to the same cache entries, so sessions never rebuild them.
  if (scenario.cooling != CoolingMode::kAir) {
    cfg.flow_lut = cache_.flow_lut(cfg);
    if (scenario.policy == Policy::kTalb) {
      cfg.talb_weights = cache_.talb_weights(cfg);
    }
  } else if (scenario.policy == Policy::kTalb) {
    cfg.talb_weights = cache_.talb_weights(cfg);
  }
  return cfg;
}

SimulationConfig ExperimentSuite::make_config(PolicyConfig policy,
                                              const BenchmarkSpec& workload) {
  return make_config(scenario_of(policy), workload);
}

std::vector<SimulationResult> ExperimentSuite::run_cells(
    const std::vector<SimulationConfig>& cells) {
  ThreadPool pool(cfg_.worker_threads == 0 ? ThreadPool::default_concurrency()
                                           : cfg_.worker_threads);
  return BatchRunner::run_sliced(cells, pool);
}

std::vector<PolicySummary> ExperimentSuite::run(
    const std::vector<ScenarioSpec>& scenarios,
    const std::vector<BenchmarkSpec>& workloads) {
  // Build every cell's config up front, on this thread: make_config lazily
  // fills the characterization cache (flow LUT, TALB weights), and doing
  // that here keeps the fan-out workers free of shared mutable state.
  std::vector<SimulationConfig> cells;
  cells.reserve(scenarios.size() * workloads.size());
  for (const ScenarioSpec& sc : scenarios) {
    for (const BenchmarkSpec& wl : workloads) {
      cells.push_back(make_config(sc, wl));
    }
  }

  std::vector<SimulationResult> results = run_cells(cells);

  std::vector<PolicySummary> summaries;
  summaries.reserve(scenarios.size());
  std::size_t cursor = 0;
  for (const ScenarioSpec& sc : scenarios) {
    PolicySummary summary;
    summary.label = sc.display_label();
    summary.per_workload.assign(
        std::make_move_iterator(results.begin() + static_cast<std::ptrdiff_t>(cursor)),
        std::make_move_iterator(results.begin() +
                                static_cast<std::ptrdiff_t>(cursor + workloads.size())));
    cursor += workloads.size();
    summaries.push_back(std::move(summary));
  }
  return summaries;
}

std::vector<PolicySummary> ExperimentSuite::run(
    const std::vector<PolicyConfig>& policies,
    const std::vector<BenchmarkSpec>& workloads) {
  std::vector<ScenarioSpec> scenarios;
  scenarios.reserve(policies.size());
  for (const PolicyConfig& pc : policies) scenarios.push_back(scenario_of(pc));
  return run(scenarios, workloads);
}

FlowComparisonResult ExperimentSuite::run_flow_comparison(
    const SkewScenario& scenario, const BenchmarkSpec& workload,
    CoolingMode cooling) {
  LIQUID3D_REQUIRE(cooling != CoolingMode::kAir,
                   "flow comparison requires a liquid stack");
  // Two scenarios differing ONLY in the delivery axis: cell_seed ignores
  // valves/skew, so both arms replay the identical workload trace — a base
  // config with valves already enabled cannot silently turn the "uniform"
  // arm into a second valved run.  A canonical skew binds by name through
  // the spec; a caller-supplied bias vector is applied directly.
  const bool canonical = [&] {
    for (const SkewScenario& s : skewed_workload_scenarios(cfg_.layer_pairs)) {
      if (s.name == scenario.name) return s.core_bias == scenario.core_bias;
    }
    return false;
  }();

  ScenarioSpec uniform;
  uniform.name = std::string("lb-") + cooling_name(cooling) + "/" + scenario.name +
                 "/uniform";
  uniform.policy = Policy::kLoadBalancing;
  uniform.cooling = cooling;
  uniform.valve_network = false;
  if (canonical) uniform.skew = scenario.name;
  uniform.label = policy_label(uniform.policy, cooling) + " [uniform]";

  ScenarioSpec valved = uniform;
  valved.name = std::string("lb-") + cooling_name(cooling) + "/" + scenario.name +
                "/valved";
  valved.valve_network = true;
  valved.label = policy_label(valved.policy, cooling) + " [valved]";

  std::vector<SimulationConfig> cells = {make_config(uniform, workload),
                                         make_config(valved, workload)};
  if (!canonical) {
    for (SimulationConfig& cell : cells) cell.core_bias = scenario.core_bias;
  }
  std::vector<SimulationResult> results = run_cells(cells);

  FlowComparisonResult r;
  r.scenario = scenario.name;
  r.uniform = std::move(results[0]);
  r.valved = std::move(results[1]);
  return r;
}

const PolicySummary& find_baseline(const std::vector<PolicySummary>& summaries,
                                   const std::string& label) {
  for (const PolicySummary& s : summaries) {
    if (s.label == label) return s;
  }
  throw ConfigError("baseline policy '" + label + "' not found in suite results");
}

}  // namespace liquid3d
