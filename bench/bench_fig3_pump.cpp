// bench_fig3_pump — reproduces Fig. 3: pump power consumption and per-cavity
// flow rates across the five settings, for the 2- and 4-layer systems (the
// paper's 50 % delivery accounting), alongside the pressure-limited delivery
// model the thermal simulation uses (see coolant/flow.hpp and
// docs/reproduction.md).
#include <iostream>

#include "common/table.hpp"
#include "coolant/flow.hpp"
#include "geom/stack.hpp"

int main() {
  using namespace liquid3d;
  const PumpModel pump = PumpModel::laing_ddc();
  const MicrochannelModel channels(CavitySpec{}, CoolantProperties::water());

  const FlowDelivery nominal2(pump, FlowDeliveryMode::kPaperNominal, channels, 11.5e-3,
                              make_2layer_system().cavity_count());
  const FlowDelivery nominal4(pump, FlowDeliveryMode::kPaperNominal, channels, 11.5e-3,
                              make_4layer_system().cavity_count());
  const FlowDelivery limited(pump, FlowDeliveryMode::kPressureLimited, channels,
                             11.5e-3, make_2layer_system().cavity_count());

  std::cout << "== Fig. 3: pump power and per-cavity flow rates ==\n";
  TablePrinter t({"setting", "pump FR [l/h]", "power [W]", "FR/cavity 2-layer [ml/min]",
                  "FR/cavity 4-layer [ml/min]", "pressure-limited [ml/min]",
                  "head [mbar]"});
  for (std::size_t s = 0; s < pump.setting_count(); ++s) {
    t.add_row({std::to_string(s + 1),
               TablePrinter::num(pump.setting(s).nominal_flow_l_per_hour, 0),
               TablePrinter::num(pump.power(s), 2),
               TablePrinter::num(nominal2.per_cavity(s).ml_per_min(), 1),
               TablePrinter::num(nominal4.per_cavity(s).ml_per_min(), 1),
               TablePrinter::num(limited.per_cavity(s).ml_per_min(), 2),
               TablePrinter::num(FlowDelivery::head_pa(s, pump.setting_count()) / 100.0,
                                 0)});
  }
  t.print(std::cout);

  std::cout << "\nPaper series (Fig. 3): power 3..21 W quadratic; per-cavity "
               "208..1042 ml/min (2-layer) and 125..625 ml/min (4-layer) "
               "after the 50 % loss factor.  The pressure-limited column is "
               "the laminar-hydraulics-consistent delivery used by the "
               "thermal simulation (the paper quotes 300-600 mbar of head "
               "across these settings; a 50x100 um channel passes ~0.06-0.22 "
               "ml/min at such heads).\n";
  return 0;
}
