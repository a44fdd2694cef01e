// bench_fig8_perf_energy — reproduces Fig. 8: chip/pump energy and relative
// performance (throughput normalized to LB (Air)) for the key policies.
#include <iostream>

#include "common/table.hpp"
#include "sim/experiment.hpp"

int main() {
  using namespace liquid3d;

  SuiteConfig sc;
  sc.duration = SimTime::from_s(40);
  ExperimentSuite suite(sc);

  // Fig. 8's policy subset.
  std::vector<ScenarioSpec> scenarios;
  for (const char* name : {"lb-air", "mig-air", "talb-air", "lb-max", "talb-var"}) {
    scenarios.push_back(ScenarioRegistry::global().at(name));
  }
  const std::vector<PolicySummary> results = suite.run(scenarios, table2_benchmarks());
  const PolicySummary& baseline = find_baseline(results);
  const double e0 = baseline.total_chip_energy();
  const double thr0 = baseline.total_throughput();

  std::cout << "== Fig. 8: performance and energy, 2-layer system ==\n";
  TablePrinter t({"policy", "chip energy (norm)", "pump energy (norm)",
                  "performance (norm)", "migrations"});
  for (const PolicySummary& s : results) {
    std::size_t migrations = 0;
    for (const SimulationResult& r : s.per_workload) migrations += r.migrations;
    t.add_row({s.label + (s.label == "TALB (Var)" ? " *" : ""),
               TablePrinter::num(s.total_chip_energy() / e0, 3),
               TablePrinter::num(s.total_pump_energy() / e0, 3),
               TablePrinter::num(s.total_throughput() / thr0, 4),
               std::to_string(migrations)});
  }
  t.print(std::cout);

  std::cout << "(*) the paper's technique.\n"
               "Shape checks vs the paper: reactive migration loses "
               "throughput on the air system (frequent temperature-triggered "
               "migrations); on liquid-cooled systems the coolant prevents "
               "the hot spots so no migrations occur and throughput matches "
               "LB; TALB (Var) saves energy with no performance cost.\n";
  return 0;
}
