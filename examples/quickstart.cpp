// quickstart.cpp — minimal end-to-end use of the liquid3d public API.
//
// Builds the paper's 2-layer liquid-cooled Niagara stack, runs the full
// technique (TALB scheduling + ARMA/SPRT-driven variable-flow control) on
// the Web-med workload for 60 simulated seconds, and prints a short trace
// plus the summary metrics.
//
//   $ ./quickstart
//
// With --stack FILE the run uses a declarative stack file (docs/stacks.md)
// instead of the built-in 2-layer system:
//
//   $ ./quickstart --stack examples/stacks/asym-3die.stack
#include <cstdio>
#include <cstring>

#include "geom/stack_spec.hpp"
#include "sim/session.hpp"
#include "workload/benchmarks.hpp"

int main(int argc, char** argv) {
  using namespace liquid3d;

  SimulationConfig cfg;
  cfg.layer_pairs = 1;  // 2-layer system, 8 cores
  cfg.cooling = CoolingMode::kLiquidVar;
  cfg.policy = Policy::kTalb;
  cfg.benchmark = *find_benchmark("Web-med");
  cfg.duration = SimTime::from_s(60);
  cfg.seed = 42;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stack") == 0 && i + 1 < argc) {
      const StackSpec spec = load_stack_file(argv[++i]);
      // The file fixes the cooling type; keep variable flow on liquid stacks.
      cfg.cooling = spec.cooling == CoolingType::kAir ? CoolingMode::kAir
                                                      : CoolingMode::kLiquidVar;
      cfg.stack = spec;
    } else {
      std::fprintf(stderr, "usage: %s [--stack FILE]\n", argv[0]);
      return 2;
    }
  }

  SimulationSession sim(cfg);

  std::printf("system: %s | policy: %s | workload: %s\n",
              sim.stack().name().c_str(),
              policy_label(cfg.policy, cfg.cooling).c_str(),
              cfg.benchmark.name.c_str());
  std::printf("%8s %8s %9s %8s %10s %8s %8s\n", "t[s]", "Tmax[C]", "Tpred[C]",
              "setting", "flow[ml/m]", "chip[W]", "pump[W]");

  sim.set_trace_callback([](const SampleTrace& t) {
    if (t.now.as_ms() % 5000 != 0) return;  // print every 5 s
    std::printf("%8.1f %8.2f %9.2f %8zu %10.2f %8.2f %8.2f\n", t.now.as_s(),
                t.tmax, t.forecast, t.pump_setting, t.flow_ml_per_min,
                t.chip_watts, t.pump_watts);
  });

  const SimulationResult r = sim.run();

  std::printf("\n-- summary ------------------------------------------\n");
  std::printf("avg Tmax             : %.2f C (peak %.2f C)\n", r.avg_tmax,
              r.hotspot_max_sample);
  std::printf("time above 80C target: %.2f %%\n", r.above_target_percent);
  std::printf("hot spots (>85C)     : %.2f %%\n", r.hotspot_percent);
  std::printf("chip energy          : %.1f J\n", r.chip_energy_j);
  std::printf("pump energy          : %.1f J\n", r.pump_energy_j);
  std::printf("throughput           : %.1f threads/s\n", r.throughput_per_s);
  std::printf("avg utilization      : %.3f (Table II target %.3f)\n",
              r.avg_utilization, cfg.benchmark.avg_utilization);
  std::printf("pump transitions     : %zu | predictor rebuilds: %zu\n",
              r.pump_transitions, r.predictor_rebuilds);
  std::printf("forecast RMSE (500ms): %.3f C\n", r.forecast_rmse);
  return 0;
}
