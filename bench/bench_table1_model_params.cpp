// bench_table1_model_params — reproduces Table I (microchannel model
// parameters) and Table III (thermal model & floorplan parameters), printing
// the paper's value next to the value the library actually computes/uses.
#include <iostream>

#include "common/table.hpp"
#include "coolant/microchannel.hpp"
#include "geom/niagara.hpp"
#include "geom/stack.hpp"
#include "thermal/model3d.hpp"

int main() {
  using namespace liquid3d;
  const Stack3D stack = make_2layer_system();
  const MicrochannelModel model(stack.cavity(), CoolantProperties::water());
  const ThermalModelParams tp;

  std::cout << "== Table I: parameters for computing Eq. 1 ==\n";
  TablePrinter t1({"parameter", "paper", "library", "unit"});
  t1.add_row({"R_th-BEOL", "5.333",
              TablePrinter::num(model.params().r_beol_area() * 1e6, 3), "K mm^2/W"});
  t1.add_row({"t_B", "12", TablePrinter::num(stack.layer(0).beol_thickness * 1e6, 0),
              "um"});
  t1.add_row({"k_BEOL", "2.25", TablePrinter::num(model.params().beol_conductivity, 2),
              "W/(m K)"});
  t1.add_row({"c_p", "4183", TablePrinter::num(model.coolant().heat_capacity, 0),
              "J/(kg K)"});
  t1.add_row({"rho", "998", TablePrinter::num(model.coolant().density, 0), "kg/m^3"});
  t1.add_row({"h", "37132", TablePrinter::num(model.params().heat_transfer_coeff, 0),
              "W/(m^2 K)"});
  t1.add_row({"h_eff = h 2(wc+tc)/p", "-", TablePrinter::num(model.h_eff(), 0),
              "W/(m^2 K)"});
  t1.add_row({"w_c", "50", TablePrinter::num(stack.cavity().channel_width * 1e6, 0),
              "um"});
  t1.add_row({"t_c", "100", TablePrinter::num(stack.cavity().channel_height * 1e6, 0),
              "um"});
  t1.add_row({"t_s", "50", TablePrinter::num(stack.cavity().wall_thickness * 1e6, 0),
              "um"});
  t1.add_row({"p", "100", TablePrinter::num(stack.cavity().pitch * 1e6, 0), "um"});
  t1.print(std::cout);

  std::cout << "\n== Table III: thermal model and floorplan parameters ==\n";
  TablePrinter t3({"parameter", "paper", "library", "unit"});
  t3.add_row({"die thickness", "0.15",
              TablePrinter::num(stack.layer(0).die_thickness * 1e3, 2), "mm"});
  const Floorplan core_die = make_niagara_core_die();
  const Floorplan cache_die = make_niagara_cache_die();
  t3.add_row({"area per core", "10",
              TablePrinter::num(core_die.block(0).rect.area() * 1e6, 1), "mm^2"});
  t3.add_row({"area per L2", "19",
              TablePrinter::num(cache_die.block(0).rect.area() * 1e6, 1), "mm^2"});
  t3.add_row({"total layer area", "115", TablePrinter::num(core_die.area() * 1e6, 1),
              "mm^2"});
  t3.add_row({"convection capacitance", "140", TablePrinter::num(tp.sink_capacitance, 0),
              "J/K"});
  t3.add_row({"convection resistance", "0.1",
              TablePrinter::num(tp.sink_to_ambient_resistance, 2) + " (calibrated)",
              "K/W"});
  t3.add_row({"interlayer thickness (bond)", "0.02",
              TablePrinter::num(stack.bond_thickness() * 1e3, 2), "mm"});
  t3.add_row({"interlayer thickness (channels)", "0.4",
              TablePrinter::num(stack.cavity().cavity_thickness * 1e3, 1), "mm"});
  t3.add_row({"interlayer resistivity (no TSV)", "0.25",
              TablePrinter::num(stack.interlayer_resistivity(), 2), "m K/W"});
  t3.print(std::cout);

  std::cout << "\n== Derived channel/TSV structure (Sec. III-A) ==\n";
  TablePrinter td({"quantity", "paper", "library"});
  td.add_row({"channels per cavity", "65", std::to_string(stack.cavity().channel_count)});
  td.add_row({"channels, 2-layer system", "195",
              std::to_string(make_2layer_system().total_channel_count())});
  td.add_row({"channels, 4-layer system", "325",
              std::to_string(make_4layer_system().total_channel_count())});
  td.add_row({"TSVs in crossbar", "128", std::to_string(stack.tsvs().count)});
  td.add_row({"TSV size", "50x50 um",
              TablePrinter::num(stack.tsvs().side * 1e6, 0) + "x" +
                  TablePrinter::num(stack.tsvs().side * 1e6, 0) + " um"});
  td.print(std::cout);

  std::cout << "\nNote: the air package convection resistance is calibrated (see "
               "docs/reproduction.md) so the air-cooled 3D stack reproduces the hot-spot "
               "regime of Fig. 6; Table III's 0.1 K/W is the bare convection "
               "term of the paper's package.\n";
  return 0;
}
