// bench_fig7_thermal_variations — reproduces Fig. 7: the frequency of large
// spatial gradients (>15 C among units) and large thermal cycles (>20 C),
// with DPM enabled, for all seven policies on the 2-layer system.
#include <iostream>

#include "common/table.hpp"
#include "sim/experiment.hpp"

int main() {
  using namespace liquid3d;

  SuiteConfig sc;
  sc.duration = SimTime::from_s(40);
  sc.dpm_enabled = true;  // "In the experiments in Figure 7, we run DPM"
  ExperimentSuite suite(sc);
  const std::vector<PolicySummary> results = suite.run_paper_grid();

  std::cout << "== Fig. 7: thermal variations (with DPM), 2-layer system ==\n";
  TablePrinter t({"policy", "spatial gradients >15C [%]", "thermal cycles >20C",
                  "sleep-heavy workloads' cycles"});
  for (const PolicySummary& s : results) {
    // The cycle metric concentrated on the low-utilization workloads where
    // DPM actually sleeps cores (gzip, MPlayer, gcc, Database).
    double low_util_cycles = 0.0;
    int low_util_count = 0;
    for (const SimulationResult& r : s.per_workload) {
      if (r.benchmark == "gzip" || r.benchmark == "MPlayer" || r.benchmark == "gcc" ||
          r.benchmark == "Database") {
        low_util_cycles += r.thermal_cycles_per_1000;
        ++low_util_count;
      }
    }
    t.add_row({s.label + (s.label == "TALB (Var)" ? " *" : ""),
               TablePrinter::num(s.mean_gradient_percent(), 2),
               TablePrinter::num(s.mean_cycles_per_1000(), 2),
               TablePrinter::num(low_util_cycles / low_util_count, 2)});
  }
  t.print(std::cout);

  std::cout << "(*) the paper's technique.  Cycles are per 1000 core-samples "
               "(100 ms sampling).\n"
               "Shape checks vs the paper: air-cooled policies suffer the "
               "most DPM-driven cycling; migration reduces gradients and "
               "cycles relative to plain LB; the worst-case-flow liquid "
               "configurations suppress both almost entirely.  One departure "
               "is documented in docs/reproduction.md: at the pressure-limited "
               "flows the variable-flow controller runs with a warmer, "
               "axially stratified coolant, so TALB (Var) shows *more* "
               "spatial gradients than the paper's (its coolant heated <1 C "
               "end to end), not fewer.\n";
  return 0;
}
