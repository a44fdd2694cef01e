// model3d.hpp — grid-level transient/steady thermal model of a 3D stack with
// interlayer microchannel liquid cooling or a conventional air package.
//
// This is the reproduction of Sec. III of the paper (the HotSpot v4.2
// extension).  Physics implemented:
//
//   * per-layer uniform grid of silicon "junction" cells with lateral
//     conduction and per-cell heat capacity;
//   * vertical conduction between adjacent dies through the interlayer:
//     - liquid stacks: solid channel-wall path in parallel with the coolant
//       path, with TSV (copper) enhancement under the crossbar footprint;
//     - air stacks: bond material path with the same TSV enhancement;
//   * per-cell convective coupling into the coolant with the constant
//     h_eff = h 2(w_c+t_c)/p of Table I (Eq. 7) — flow-independent, exactly
//     as the paper treats ΔT_conv;
//   * quasi-static coolant advection: the fluid temperature profile is
//     marched downstream from the inlet each evaluation (the iterative
//     ΔT_heat accumulation of Sec. III-A, Eq. 4-5).  The coolant transit
//     time (<1 ms) is far below both the thermal time constant (~100 ms)
//     and the 100 ms sampling interval, so treating the fluid as algebraic
//     is the faithful discretization of the paper's model;
//   * BEOL conduction resistance (Eq. 2-3) in series with every coupling on
//     a die's active face;
//   * air-cooled stacks: TIM + spreader + sink lumped package (Table III
//     capacitance), heat sink to ambient.
//
// Numerics: backward Euler.  The quasi-static march is linear in the wall
// temperatures, so a liquid step eliminates the coolant exactly: it solves
// (C/dt + G_elim(flow)) T = C/dt T_prev + P + inlet_coef T_in, and the
// fluid, outlet and absorbed-power readbacks march the coolant on demand.
// G_elim couples each cell only to upstream cells of its channel row
// (within the band), and its coefficients carry the flow — the paper's
// "cell resistivity varies at runtime" mechanism in its physically
// equivalent form.  Air stacks have no coolant: a step solves their
// conduction operator C/dt + G against the package temperature.  Every
// step is one linear solve, and the steady state is the same step at
// 1/dt = 0 (an air stack first sets its spreader and sink in closed form,
// since all the power crosses the package in series).
//
// Every solve goes through a banded-LU factor keyed by the topology
// fingerprint, 1/dt and, for liquid stacks, the flow vector: from the
// model's own slot, refactorized in place when its key changes, or, when a
// FactorCache is lent (use_factor_cache), from the cache's slot of that key,
// refactorizing into a slot the cache picks on a miss;
// step_lockstep solves models that hold one key through one factor in one
// multi-right-hand-side sweep.  The band costs
// n (2b + 1) doubles for n nodes and half-bandwidth b = cols x layers, so
// construction rejects a grid whose band would pass kMaxFactorBytes.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "common/units.hpp"
#include "coolant/microchannel.hpp"
#include "coolant/properties.hpp"
#include "geom/grid.hpp"
#include "geom/stack.hpp"
#include "thermal/factor_cache.hpp"
#include "thermal/solver/banded_lu.hpp"
#include "thermal/steady_operator.hpp"

namespace liquid3d {

/// Complete dynamic state of a ThermalModel3D — everything `step` and
/// `solve_steady_state` evolve.  Snapshot/restore lets characterization
/// warm-start a steady solve's leakage loop from a previously converged
/// nearby operating point.
struct ThermalState {
  std::vector<double> temps;                   ///< silicon nodes [°C]
  std::vector<std::vector<double>> fluid_temp; ///< [cavity][cell]
  std::vector<double> cavity_absorbed;
  std::vector<double> cavity_outlet;
  double spreader_temp = 0.0;
  double sink_temp = 0.0;
};

struct ThermalModelParams {
  // Grid resolution (per layer).  The paper uses 100 µm cells; the default
  // here (~0.44 mm) keeps half-hour transient sweeps tractable, and the
  // grid-convergence test demonstrates the refinement behaviour.
  std::size_t grid_rows = 23;
  std::size_t grid_cols = 26;

  // Silicon properties (~350 K values).
  double silicon_conductivity = 120.0;              ///< W/(m K)
  double silicon_volumetric_heat_capacity = 1.63e6; ///< J/(m^3 K)

  // Interlayer bond material: Table III resistivity 0.25 (m K)/W -> k = 4.
  double bond_conductivity = 4.0;  ///< W/(m K)

  // Effective conductivity of the cavity's solid (channel-wall) path,
  // silicon walls plus bond interfaces in series.
  double cavity_wall_conductivity = 100.0;  ///< W/(m K)

  // Boundary temperatures [°C].  45 °C reflects warm-water cooling and a
  // within-enclosure ambient; see docs/reproduction.md, "Calibration
  // choices".
  double inlet_temperature = 45.0;
  double ambient_temperature = 45.0;

  // Microchannel constants (Table I).
  MicrochannelModelParams channel_params{};
  CoolantProperties coolant = CoolantProperties::water();

  // Air package (liquid stacks ignore these).  The sink-to-ambient value is
  // calibrated so the air-cooled 3D stack exhibits the hot-spot rates of
  // Fig. 6; Table III's 0.1 K/W is the bare convection term of that package.
  double tim_thickness = 140e-6;            ///< m (thermal paste bondline)
  double tim_conductivity = 2.0;            ///< W/(m K)
  double spreader_capacitance = 40.0;       ///< J/K
  double sink_capacitance = 140.0;          ///< J/K (Table III)
  double spreader_to_sink_resistance = 0.10; ///< K/W
  double sink_to_ambient_resistance = 0.05;  ///< K/W (calibrated; see above)

  /// Alternate the coolant flow direction of successive cavities
  /// (counterflow routing).  In the *convection-limited* regime (high flow)
  /// this evens the axial gradient; in the *advection-limited* regime this
  /// system operates in (the coolant saturates to wall temperature within a
  /// couple of cells), a reversed middle cavity exhausts at the cold end
  /// and wastes its capacity, raising T_max.  Off by default — the paper
  /// assumes a common inlet side.
  bool alternate_flow_direction = false;
};

/// The one list of ThermalModelParams' leaf fields: calls f(name, field) for
/// each, with `t` const or mutable.  The names and order are the serve wire's
/// (`t.<name>`), and every cache identity is derived from this walk, so a
/// field missing here is missing everywhere.
template <class Params, class F>
  requires std::same_as<std::remove_const_t<Params>, ThermalModelParams>
constexpr void visit_fields(Params& t, F&& f) {
  f("grid_rows", t.grid_rows);
  f("grid_cols", t.grid_cols);
  f("silicon_conductivity", t.silicon_conductivity);
  f("silicon_volumetric_heat_capacity", t.silicon_volumetric_heat_capacity);
  f("bond_conductivity", t.bond_conductivity);
  f("cavity_wall_conductivity", t.cavity_wall_conductivity);
  f("inlet_temperature", t.inlet_temperature);
  f("ambient_temperature", t.ambient_temperature);
  f("beol_thickness", t.channel_params.beol_thickness);
  f("beol_conductivity", t.channel_params.beol_conductivity);
  f("heat_transfer_coeff", t.channel_params.heat_transfer_coeff);
  f("coolant_heat_capacity", t.coolant.heat_capacity);
  f("coolant_density", t.coolant.density);
  f("coolant_conductivity", t.coolant.conductivity);
  f("coolant_dynamic_viscosity", t.coolant.dynamic_viscosity);
  f("tim_thickness", t.tim_thickness);
  f("tim_conductivity", t.tim_conductivity);
  f("spreader_capacitance", t.spreader_capacitance);
  f("sink_capacitance", t.sink_capacitance);
  f("spreader_to_sink_resistance", t.spreader_to_sink_resistance);
  f("sink_to_ambient_resistance", t.sink_to_ambient_resistance);
  f("alternate_flow_direction", t.alternate_flow_direction);
}

// Drift tripwire: a field added to ThermalModelParams (or to a struct it
// nests) changes its size and stops the build here, until the field is in
// visit_fields and this size is updated.
static_assert(sizeof(void*) != 8 || sizeof(ThermalModelParams) == 176,
              "ThermalModelParams changed: update visit_fields and this size");

/// Largest LU band a model may allocate [bytes]: n (2b + 1) doubles for
/// n = rows x cols x layers nodes and half-bandwidth b = cols x layers.
/// The paper's 100 µm grid (100 x 115 cells) needs 85 MB on 2 layers and
/// 339 MB on 4; a 200 x 500 grid on 2 layers would need 3.2 GB.
inline constexpr std::size_t kMaxFactorBytes = std::size_t{512} << 20;

class ThermalModel3D {
 public:
  /// Throws ConfigError, before allocating anything of the grid's size,
  /// when the model's LU band would pass kMaxFactorBytes.
  explicit ThermalModel3D(Stack3D stack, ThermalModelParams params = {});

  // -- Topology ---------------------------------------------------------------
  [[nodiscard]] const Stack3D& stack() const { return stack_; }
  [[nodiscard]] const Grid& grid() const { return grid_; }
  [[nodiscard]] const ThermalModelParams& params() const { return params_; }
  [[nodiscard]] std::size_t layer_count() const { return layer_count_; }
  [[nodiscard]] const BlockCellMap& block_map(std::size_t layer) const {
    return maps_.at(layer);
  }
  [[nodiscard]] std::size_t node_count() const { return node_count_; }

  // -- Inputs -----------------------------------------------------------------
  /// Per-block dissipated power [W] for one layer (arity = block count).
  void set_block_power(std::size_t layer, const std::vector<double>& watts);

  /// Uniform per-cavity volumetric flow (Sec. III-B assumption): broadcasts
  /// one value to every cavity.
  void set_cavity_flow(VolumetricFlow per_cavity);
  /// Per-cavity flow vector (arity = cavity count) — the valve-network
  /// generalization.  Each cavity's value feeds its own fluid march and the
  /// fluid-eliminated steady assembly.
  void set_cavity_flow(const std::vector<VolumetricFlow>& per_cavity);
  /// Flow of one cavity.
  [[nodiscard]] VolumetricFlow cavity_flow(std::size_t cavity) const {
    return cavity_flows_.at(cavity);
  }
  [[nodiscard]] const std::vector<VolumetricFlow>& cavity_flows() const {
    return cavity_flows_;
  }

  /// Override the coolant inlet temperature [°C].
  void set_inlet_temperature(double celsius);
  /// Override the ambient temperature [°C] an air stack's heat sink rejects
  /// to.  Like the inlet temperature, it enters no factor.
  void set_ambient_temperature(double celsius);

  // -- Simulation -------------------------------------------------------------
  /// Reset every node (and the package/fluid) to the given temperature [°C].
  void initialize(double temperature_c);

  /// Advance the transient solution by dt seconds (backward Euler).
  void step(double dt_s);

  /// step(dt_s) on every model of `models`, bit for bit, with the LU
  /// solves shared: models whose LU key agrees — equal topology
  /// fingerprints and equal flow vectors, at the one 1/dt — solve through
  /// one factor in one multi-right-hand-side sweep.  A model whose key no
  /// other holds takes step().  A group's factor comes from its lead's
  /// lent FactorCache, if any.  BatchRunner's substep loop.
  static void step_lockstep(std::span<ThermalModel3D* const> models, double dt_s);

  /// Solve for the steady state under the current power and flow: the
  /// implicit step at 1/dt = 0, on every stack.  `pre_step`,
  /// when given, runs before every leakage iteration — the hook
  /// characterization uses to fold the temperature-dependent leakage power
  /// into the solve, iterating until the field moves less than 0.05 K.
  /// Returning false aborts the iteration (e.g. on detected thermal
  /// runaway).
  void solve_steady_state(const std::function<bool()>& pre_step = {});

  // -- Readback ---------------------------------------------------------------
  [[nodiscard]] double cell_temperature(std::size_t layer, std::size_t cell) const;
  /// The silicon field [°C]; node (layer l, cell c) is at c * layer_count() + l.
  [[nodiscard]] std::span<const double> temperatures() const { return temps_; }
  /// Worst-case (max-cell) temperature over a block's footprint — what a
  /// per-unit thermal sensor reports.  The block readbacks read the field in
  /// place.
  [[nodiscard]] double block_temperature(std::size_t layer, std::size_t block) const;
  [[nodiscard]] double block_mean_temperature(std::size_t layer, std::size_t block) const;
  /// Maximum junction temperature anywhere in the stack.
  [[nodiscard]] double max_temperature() const;
  [[nodiscard]] double min_temperature() const;

  /// Maximum junction temperature over the dies a cavity touches (layer
  /// k-1 below and layer k above) — the per-cavity observation the valve
  /// controller steers on [°C].
  [[nodiscard]] double cavity_max_temperature(std::size_t cavity) const;
  /// Per-cavity maxima for all cavities, written into `out` (no allocation
  /// after first use).
  void cavity_max_temperatures(std::vector<double>& out) const;

  /// Mean coolant outlet temperature of a cavity [°C].  NOTE: this reader,
  /// cavity_absorbed_power and save_state are const but first run the
  /// coolant march a liquid solve leaves pending (mutable state), so
  /// a model instance must not be read concurrently from multiple threads —
  /// parallel drivers give each worker its own model.
  [[nodiscard]] double fluid_outlet_temperature(std::size_t cavity) const;
  /// Heat absorbed by one cavity's coolant [W] (from the last evaluation).
  [[nodiscard]] double cavity_absorbed_power(std::size_t cavity) const;
  /// Heat-spreader and heat-sink temperatures (air-cooled stacks) [°C].
  [[nodiscard]] double spreader_temperature() const { return spreader_temp_; }
  [[nodiscard]] double sink_temperature() const { return sink_temp_; }

  /// Total power currently injected [W].
  [[nodiscard]] double total_power() const;

  // -- State snapshot (warm starts) -------------------------------------------
  /// Copy the full dynamic state into `out` (reuses its storage).
  void save_state(ThermalState& out) const;
  /// Restore a state previously captured from this model (or an identically
  /// configured one); sizes must match.
  void restore_state(const ThermalState& state);

  /// Solve through `cache`'s factors instead of the model's own slot
  /// (null: back to the own slot).  The cache's key carries the topology
  /// fingerprint, so a factor another model built is used only when it is
  /// bit-identical to the one this model would build.  The cache must
  /// outlive the loan; a slot it returns is read only until that solve
  /// ends.  The serve queue and BatchRunner lend each worker's cache to
  /// the sessions it runs.
  void use_factor_cache(FactorCache* cache) { factor_cache_ = cache; }
  /// Free the model's own LU band; its next solve there refactorizes.  The
  /// service drops the band a ROM build factored, as the ROM answers
  /// without it.
  void free_factor() { lu_slot_.lu.reset(); }

  /// Hash of the conduction topology (capacitances, couplings, external
  /// conductances, grid shape, coolant capacity and flow directions).  Two
  /// models with equal fingerprints assemble bit-identical system matrices
  /// for any dt — and, for liquid stacks, for any equal flow vector — so
  /// one factorization can serve both: part of a FactorCache key, and
  /// BatchRunner's lockstep grouping.
  [[nodiscard]] std::uint64_t topology_fingerprint() const {
    return topo_fingerprint_;
  }

  /// Export the steady-state linear system A T = p + ref_coef * T_ref for
  /// the *current* flow vector (see thermal/steady_operator.hpp): the
  /// fluid-eliminated operator for liquid stacks (requires nonzero flow in
  /// every cavity), the conduction network plus the two package unknowns
  /// for air stacks.  Offline-path cost (dense band scan); reuses `out`'s
  /// storage.  The exported algebra is exact: solve_steady_state's answer
  /// solves this system.
  void export_steady_operator(SteadyOperator& out) const;

 private:
  friend struct ThermalModel3DTestAccess;  // white-box tests
  struct Coupling {
    std::size_t a;
    std::size_t b;
    double g;
  };
  [[nodiscard]] std::size_t node(std::size_t layer, std::size_t cell) const {
    return cell * layer_count_ + layer;
  }

  void build_topology();
  /// Assemble the fluid-eliminated operator C inv_dt + G_elim for the
  /// current flow vector (liquid stacks) into `m`, of size node_count() and
  /// half-bandwidths cols x layers, plus each node's coefficient on the
  /// inlet temperature.  inv_dt = 0 gives the steady operator.  A cavity
  /// with (near-)zero flow contributes its stagnant-coolant wall average,
  /// exactly as the fluid march does.  `scratch` holds per-cavity tables
  /// (4 x cols values, resized on first use).  Defined in
  /// eliminated_system.cpp.
  void build_eliminated_system(double inv_dt, BandedLuMatrix& m,
                               std::vector<double>& inlet_coef,
                               std::vector<double>& scratch) const;
  /// A slot that holds the factor of (inv_dt, current flow vector): with a
  /// lent cache, the cache's slot of that key or the slot it gives up,
  /// refactorized; otherwise the model's own slot, refactorized in place
  /// when its key changed.  The C inv_dt + G (air) or fluid-eliminated
  /// (liquid) operator, and for liquid stacks each node's coefficient on
  /// the inlet temperature.
  const LuSlot& lu_slot(double inv_dt);
  /// A step in three parts.  First the right-hand side for the slot's
  /// operator into out[0, node_count()), checked finite: C inv_dt
  /// temps_prev_ + P, plus inlet_coef T_in for liquid stacks and the
  /// spreader's pull on an air stack's top layer.  Reads temps_prev_ —
  /// callers snapshot temps_ there first.
  void assemble_direct_rhs(const LuSlot& slot, double inv_dt, double* out) const;
  /// Then the solve, of one right-hand side or of a lockstep group's
  /// column block (timed).
  static void solve_direct(const BandedLuMatrix& factor, std::span<double> rhs);
  /// Then, with the solution in temps_, its finite check.  Nothing reads
  /// the coolant until a readback, so a liquid model's march is left
  /// pending (fluid_stale_).
  void finish_direct_solve();
  /// Whether this model and `other` solve through the same direct factor
  /// at any one 1/dt (step_lockstep's key).
  [[nodiscard]] bool shares_lu_key(const ThermalModel3D& other) const;
  /// step() of this model and the rest of lockstep_group_ (which it leads)
  /// through one factor and one sweep of their stacked right-hand sides.
  void step_group(double dt_s);
  /// One backward-Euler step of size 1/inv_dt (inv_dt = 0: the steady
  /// state); max_change() then gives the largest node temperature change.
  /// One LU solve of the fluid-eliminated operator (liquid stacks) or of
  /// C inv_dt + G (air).
  void advance(double inv_dt);
  /// Largest |temps_ - temps_prev_| over the silicon nodes.
  [[nodiscard]] double max_change() const;
  /// What one cavity's march reports besides its fluid field.
  struct CavityTotals {
    double absorbed;  ///< heat the coolant took up [W]
    double outlet;    ///< mean outlet temperature [°C]
  };
  /// March the coolant downstream through one cavity: `fluid` (cell_count_
  /// values) <- the coolant temperature over the silicon field `temps`
  /// with inlet temperature `t_inlet`.  Linear in (temps, t_inlet).
  CavityTotals march_fluid(std::size_t cavity, const double* temps,
                           double t_inlet, double* fluid) const;
  /// Run the march a liquid solve left pending, if any: the coolant
  /// readbacks depend only on temps_, the inlet temperature and the flows,
  /// so a pending march is settled before any of them changes (initialize
  /// and restore_state overwrite the coolant and drop it).
  void settle_fluid() const;
  void update_package_transient(double dt_s);

  Stack3D stack_;
  ThermalModelParams params_;
  Grid grid_;
  std::vector<BlockCellMap> maps_;
  std::size_t layer_count_;
  std::size_t cell_count_;
  std::size_t node_count_;

  // Static topology.
  std::uint64_t topo_fingerprint_ = 0;
  std::vector<Coupling> couplings_;
  std::vector<double> capacitance_;  ///< per node [J/K]
  std::vector<double> ext_diag_;     ///< per node: total conductance to
                                     ///< external (fluid/package) temps [W/K]
  // Per-cavity convective conductances per cell (uniform over cells).
  double g_fluid_dn_ = 0.0;  ///< cavity fluid <-> layer below (BEOL face)
  double g_fluid_up_ = 0.0;  ///< cavity fluid <-> layer above (slab face)
  double g_package_ = 0.0;   ///< top-layer cell <-> spreader (air only)

  // State.
  std::vector<double> temps_;       ///< silicon node temperatures [°C]
  std::vector<double> cell_power_;  ///< per node injected power [W]
  // The coolant: mutable because its const readers settle a pending march.
  mutable std::vector<std::vector<double>> fluid_temp_;  ///< [cavity][cell]
  mutable std::vector<double> cavity_absorbed_;          ///< [cavity] W
  mutable std::vector<double> cavity_outlet_;            ///< [cavity] mean outlet °C
  mutable bool fluid_stale_ = false;  ///< a march is pending (liquid)
  double spreader_temp_ = 45.0;
  double sink_temp_ = 45.0;
  double inlet_temperature_;
  std::vector<VolumetricFlow> cavity_flows_;  ///< [cavity]

  // The model's own LU slot, rebuilt in place on any change of its key and
  // unused while a FactorCache is lent.
  LuSlot lu_slot_;
  FactorCache* factor_cache_ = nullptr;

  // Persistent scratch — the hot loop (`step`/`advance`) and the per-sample
  // readbacks must not touch the heap after warm-up.
  std::vector<double> rhs_;
  std::vector<double> temps_prev_;
  std::vector<ThermalModel3D*> lockstep_group_;  ///< step_lockstep, as lead
  std::vector<double> lockstep_rhs_;  ///< the group's n x k column block
  std::vector<double> block_power_scratch_;
};

}  // namespace liquid3d
