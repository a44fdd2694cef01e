// bench_ablation_controller — ablations of the controller design choices
// docs/reproduction.md lists:
//   1. proactive (ARMA forecast) vs reactive (act on the measurement) flow
//      control, given the ~275 ms pump transition latency;
//   2. hysteresis width (the paper uses 2 C);
//   3. TALB's characterized weights vs uniform weights (reduces to LB).
// All on the 2-layer system, Web-med (the mid-utilization workload where
// the controller actually moves).
#include <iostream>

#include "common/table.hpp"
#include "sim/simulator.hpp"

namespace {

liquid3d::SimulationResult run_cell(liquid3d::SimulationConfig cfg) {
  liquid3d::Simulator sim(std::move(cfg));
  return sim.run();
}

}  // namespace

int main() {
  using namespace liquid3d;

  SimulationConfig base;
  base.cooling = CoolingMode::kLiquidVar;
  base.policy = Policy::kTalb;
  base.benchmark = *find_benchmark("Web-med");
  base.duration = SimTime::from_s(40);
  base.seed = 17;
  base.flow_lut = Simulator::build_flow_lut(base);
  base.talb_weights = Simulator::build_talb_weights(base);

  std::cout << "== Ablation 1: proactive vs reactive flow control ==\n";
  {
    TablePrinter t({"controller", ">80C [%]", "peak T [C]", "pump energy [J]",
                    "pump transitions"});
    for (bool reactive : {false, true}) {
      SimulationConfig cfg = base;
      cfg.manager.reactive = reactive;
      const SimulationResult r = run_cell(cfg);
      t.add_row({reactive ? "reactive (measurement)" : "proactive (ARMA forecast)",
                 TablePrinter::num(r.above_target_percent, 2),
                 TablePrinter::num(r.hotspot_max_sample, 2),
                 TablePrinter::num(r.pump_energy_j, 1),
                 std::to_string(r.pump_transitions)});
    }
    t.print(std::cout);
    std::cout << "Both controllers hold the target (the measured-temperature "
                 "guard backstops each), but the reactive one flaps the pump "
                 "several times more often — exactly the oscillation the "
                 "paper's proactive design avoids; the forecast pre-arms the "
                 "275 ms pump transition before the heat arrives.\n\n";
  }

  std::cout << "== Ablation 2: hysteresis width ==\n";
  {
    TablePrinter t({"hysteresis [C]", ">80C [%]", "pump energy [J]",
                    "pump transitions"});
    for (double h : {0.0, 1.0, 2.0, 4.0}) {
      SimulationConfig cfg = base;
      cfg.manager.controller.hysteresis = h;
      const SimulationResult r = run_cell(cfg);
      t.add_row({TablePrinter::num(h, 1), TablePrinter::num(r.above_target_percent, 2),
                 TablePrinter::num(r.pump_energy_j, 1),
                 std::to_string(r.pump_transitions)});
    }
    t.print(std::cout);
    std::cout << "Wider hysteresis trades a little pump energy for fewer "
                 "setting changes (the paper settles on 2 C).\n\n";
  }

  std::cout << "== Ablation 3: TALB weights vs uniform (plain LB) ==\n";
  {
    TablePrinter t({"weights", "spatial gradients >15C [%]", "avg Tmax [C]",
                    "peak T [C]"});
    for (bool uniform : {false, true}) {
      SimulationConfig cfg = base;
      if (uniform) {
        cfg.talb_weights = std::make_shared<const TalbWeightTable>(
            TalbWeightTable::uniform(8));
      }
      const SimulationResult r = run_cell(cfg);
      t.add_row({uniform ? "uniform (= LB)" : "characterized (TALB)",
                 TablePrinter::num(r.spatial_gradient_percent, 2),
                 TablePrinter::num(r.avg_tmax, 2),
                 TablePrinter::num(r.hotspot_max_sample, 2)});
    }
    t.print(std::cout);
    std::cout << "Position-aware weights steer work toward the cores the "
                 "coolant serves best, trimming the worst-case (peak) "
                 "temperature the flow controller must budget for.\n";
  }
  return 0;
}
