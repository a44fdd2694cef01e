// policy_comparison.cpp — compare the paper's policy/cooling configurations
// on one workload (default: Web&DB; pass a Table II name to change it).
//
//   $ ./policy_comparison            # Web&DB
//   $ ./policy_comparison gzip
#include <cstdio>
#include <sstream>
#include <string>

#include "common/table.hpp"
#include "sim/experiment.hpp"

int main(int argc, char** argv) {
  using namespace liquid3d;

  const std::string name = argc > 1 ? argv[1] : "Web&DB";
  const auto bench = find_benchmark(name);
  if (!bench) {
    std::fprintf(stderr, "unknown benchmark '%s'; use a Table II name\n", name.c_str());
    return 1;
  }

  SuiteConfig sc;
  sc.duration = SimTime::from_s(40);
  ExperimentSuite suite(sc);

  std::printf("policy comparison on '%s' (util %.1f%%), 2-layer system, 40 s\n\n",
              bench->name.c_str(), 100.0 * bench->avg_utilization);

  TablePrinter t({"policy", "avg Tmax [C]", "peak [C]", ">85C [%]", "grad>15C [%]",
                  "chip E [J]", "pump E [J]", "thr [thr/s]"});
  for (const PolicySummary& s : suite.run(paper_scenario_grid(), {*bench})) {
    const SimulationResult& r = s.per_workload.front();
    t.add_row({r.label, TablePrinter::num(r.avg_tmax, 1),
               TablePrinter::num(r.hotspot_max_sample, 1),
               TablePrinter::num(r.hotspot_percent, 2),
               TablePrinter::num(r.spatial_gradient_percent, 1),
               TablePrinter::num(r.chip_energy_j, 0),
               TablePrinter::num(r.pump_energy_j, 0),
               TablePrinter::num(r.throughput_per_s, 1)});
  }
  std::ostringstream os;
  t.print(os);
  std::fputs(os.str().c_str(), stdout);
  std::printf("\nTALB (Var) is the paper's technique: liquid cooling with the "
              "ARMA/SPRT-driven flow controller and weighted load balancing.\n");
  return 0;
}
