#include "thermal/model3d.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace liquid3d {

namespace {
/// Fraction of the die footprint that lies over channel structures: the
/// 65 channels at pitch p cover 65 * p of the die height (Sec. III-A).
double channel_coverage(const CavitySpec& cavity, double die_height) {
  return std::min(1.0, static_cast<double>(cavity.channel_count) * cavity.pitch /
                           die_height);
}

// The topology fingerprint hashes the exact bit patterns of every quantity
// the assembly reads, so equal fingerprints imply bit-identical system
// matrices.  MurmurHash3-style, a 64-bit word at a time: each word is
// scrambled on its own (multiply, rotate, multiply — off the dependency
// chain, so consecutive words overlap), then folded into h by a rotate and
// a multiply-add.  Every step is a bijection, so two word sequences that
// differ in one word always hash apart.  The fingerprint is compared only
// in-process, never stored.
constexpr std::uint64_t kMixSeed = 0xcbf29ce484222325ULL;

void hash_mix(std::uint64_t& h, std::uint64_t word) {
  word *= 0x87c37b91114253d5ULL;
  word = std::rotl(word, 31);
  word *= 0x4cf5ad432745937fULL;
  h ^= word;
  h = std::rotl(h, 27) * 5 + 0x52dce729;
}

/// Throws exactly when some entry is NaN or ±inf (all exponent bits set);
/// an integer OR-reduction, so the one pass vectorizes.
void require_finite(const double* v, std::size_t n, const char* what) {
  constexpr std::uint64_t kExponent = 0x7ff0000000000000ULL;
  std::uint64_t non_finite = 0;
  for (std::size_t i = 0; i < n; ++i) {
    non_finite |= (std::bit_cast<std::uint64_t>(v[i]) & kExponent) == kExponent;
  }
  if (non_finite != 0) throw SolverError(what);
}

constexpr const char* kNonFiniteRhs =
    "assembled backward-Euler RHS contains non-finite values (check power "
    "inputs and fluid state)";
constexpr const char* kNonFiniteSolution =
    "linear solve produced non-finite temperatures";

void hash_mix(std::uint64_t& h, double v) {
  hash_mix(h, std::bit_cast<std::uint64_t>(v));
}

/// Throws ConfigError when the LU band of a rows x cols grid on `layers`
/// layers — n (2b + 1) doubles, n = rows x cols x layers, b = cols x
/// layers — passes kMaxFactorBytes.  Checked arithmetic: the grid may come
/// off the wire with any row count.
void require_factor_fits(std::size_t rows, std::size_t cols, std::size_t layers) {
  std::size_t b = 0;
  std::size_t n = 0;
  std::size_t width = 0;
  std::size_t bytes = 0;
  const bool overflow = __builtin_mul_overflow(cols, layers, &b) ||
                        __builtin_mul_overflow(rows, b, &n) ||
                        __builtin_mul_overflow(b, 2, &width) ||
                        __builtin_add_overflow(width, 1, &width) ||
                        __builtin_mul_overflow(n, width, &bytes) ||
                        __builtin_mul_overflow(bytes, sizeof(double), &bytes);
  if (overflow || bytes > kMaxFactorBytes) {
    throw ConfigError(
        "a " + std::to_string(rows) + " x " + std::to_string(cols) + " grid on " +
        std::to_string(layers) + " layers needs an LU band of " +
        (overflow ? std::string("more than 2^64") : std::to_string(bytes >> 20) + " MiB") +
        ", above the " + std::to_string(kMaxFactorBytes >> 20) + " MiB limit");
  }
}
}  // namespace

ThermalModel3D::ThermalModel3D(Stack3D stack, ThermalModelParams params)
    : stack_(std::move(stack)),
      params_(params),
      grid_(params.grid_rows, params.grid_cols, stack_.width(), stack_.height()),
      layer_count_(stack_.layer_count()),
      cell_count_(grid_.cell_count()),
      node_count_(stack_.layer_count() * grid_.cell_count()),
      inlet_temperature_(params.inlet_temperature) {
  LIQUID3D_REQUIRE(layer_count_ >= 1, "stack must have at least one layer");
  require_factor_fits(params_.grid_rows, params_.grid_cols, layer_count_);
  maps_.reserve(layer_count_);
  for (std::size_t l = 0; l < layer_count_; ++l) {
    maps_.emplace_back(grid_, stack_.layer(l).floorplan);
  }
  temps_.assign(node_count_, params_.ambient_temperature);
  cell_power_.assign(node_count_, 0.0);
  rhs_.assign(node_count_, 0.0);
  temps_prev_.assign(node_count_, 0.0);
  if (stack_.has_cavities()) {
    fluid_temp_.assign(stack_.cavity_count(),
                       std::vector<double>(cell_count_, inlet_temperature_));
    cavity_absorbed_.assign(stack_.cavity_count(), 0.0);
    cavity_outlet_.assign(stack_.cavity_count(), inlet_temperature_);
    cavity_flows_.assign(stack_.cavity_count(), VolumetricFlow{});
  }
  spreader_temp_ = params_.ambient_temperature;
  sink_temp_ = params_.ambient_temperature;
  build_topology();
}

void ThermalModel3D::build_topology() {
  capacitance_.assign(node_count_, 0.0);
  ext_diag_.assign(node_count_, 0.0);
  // Lateral couplings per layer, plus one per cell between adjacent layers.
  const std::size_t rows = grid_.rows();
  const std::size_t cols = grid_.cols();
  couplings_.clear();
  couplings_.reserve(layer_count_ * (rows * (cols - 1) + (rows - 1) * cols) +
                     (layer_count_ - 1) * cell_count_);

  const double a_cell = grid_.cell_area();
  const double k_si = params_.silicon_conductivity;

  // Per-node heat capacity: silicon cell volume, plus (for liquid stacks)
  // the thermal mass of the adjacent interlayer cavities — the etched
  // channel walls and the coolant held in the channels move with the die
  // temperature and roughly triple the per-cell mass.  Each cavity's mass is
  // split between the two dies it touches (edge cavities give their full
  // share to their single die).
  for (std::size_t l = 0; l < layer_count_; ++l) {
    const double c_node =
        params_.silicon_volumetric_heat_capacity * a_cell * stack_.layer(l).die_thickness;
    for (std::size_t cell = 0; cell < cell_count_; ++cell) {
      capacitance_[node(l, cell)] = c_node;
    }
  }
  if (stack_.has_cavities()) {
    const CavitySpec& cav = stack_.cavity();
    const double coverage = channel_coverage(cav, stack_.height());
    const double solid_frac = 1.0 - coverage * (cav.channel_width / cav.pitch);
    const double c_solid = params_.silicon_volumetric_heat_capacity * a_cell *
                           cav.cavity_thickness * solid_frac;
    const double c_fluid = params_.coolant.volumetric_heat_capacity() * a_cell *
                           cav.channel_height * coverage *
                           (cav.channel_width / cav.pitch);
    const double c_cavity = c_solid + c_fluid;
    for (std::size_t l = 0; l < layer_count_; ++l) {
      // Cavity below (index l) and above (index l+1); interior cavities are
      // shared between two dies.
      const double share_below = (l == 0) ? 1.0 : 0.5;
      const double share_above = (l == layer_count_ - 1) ? 1.0 : 0.5;
      for (std::size_t cell = 0; cell < cell_count_; ++cell) {
        capacitance_[node(l, cell)] += c_cavity * (share_below + share_above);
      }
    }
  }

  // Lateral conduction.
  for (std::size_t l = 0; l < layer_count_; ++l) {
    const double t_die = stack_.layer(l).die_thickness;
    const double g_col = k_si * grid_.cell_height() * t_die / grid_.cell_width();
    const double g_row = k_si * grid_.cell_width() * t_die / grid_.cell_height();
    for (std::size_t r = 0; r < grid_.rows(); ++r) {
      for (std::size_t c = 0; c < grid_.cols(); ++c) {
        const std::size_t cell = grid_.index(r, c);
        if (c + 1 < grid_.cols()) {
          couplings_.push_back({node(l, cell), node(l, grid_.index(r, c + 1)), g_col});
        }
        if (r + 1 < grid_.rows()) {
          couplings_.push_back({node(l, cell), node(l, grid_.index(r + 1, c)), g_row});
        }
      }
    }
  }

  // TSV footprint: per-cell share of the crossbar TSV bundle.  All layers
  // share the crossbar rect by construction; use layer 0's.
  std::vector<double> tsv_area_cell(cell_count_, 0.0);
  {
    const Floorplan& fp = stack_.layer(0).floorplan;
    for (const Block& b : fp.blocks()) {
      if (b.type != BlockType::kCrossbar) continue;
      for (std::size_t cell = 0; cell < cell_count_; ++cell) {
        const double overlap = b.rect.overlap_area(grid_.cell_rect(cell));
        if (overlap > 0.0) {
          tsv_area_cell[cell] +=
              stack_.tsvs().total_area() * overlap / b.rect.area();
        }
      }
    }
  }

  // Vertical conduction between adjacent layers and external couplings.
  const bool liquid = stack_.has_cavities();
  const double coverage =
      liquid ? channel_coverage(stack_.cavity(), stack_.height()) : 0.0;

  // Per-cell series resistances on the die faces.
  auto r_beol_cell = [&](std::size_t l) {
    return MicrochannelModelParams{stack_.layer(l).beol_thickness,
                                   params_.channel_params.beol_conductivity,
                                   params_.channel_params.heat_transfer_coeff}
               .r_beol_area() /
           a_cell;
  };
  auto r_slab_cell = [&](std::size_t l) {
    return stack_.layer(l).die_thickness / (k_si * a_cell);
  };

  if (liquid) {
    const CavitySpec& cav = stack_.cavity();
    const MicrochannelModel channels(cav, params_.coolant, params_.channel_params);
    // Convective resistance over the channeled share of a cell's footprint.
    const double r_conv_cell = 1.0 / (channels.h_eff() * a_cell * coverage);
    // Couplings identical for all layers (same thickness); use layer 0.
    g_fluid_dn_ = 1.0 / (r_beol_cell(0) + r_conv_cell);
    g_fluid_up_ = 1.0 / (r_slab_cell(0) + r_conv_cell);

    // Solid channel-wall path area fraction: outside the channeled band the
    // full cell is solid; inside it, walls occupy (1 - w_c/p).
    const double solid_frac = 1.0 - coverage * (cav.channel_width / cav.pitch);
    for (std::size_t l = 0; l + 1 < layer_count_; ++l) {
      for (std::size_t cell = 0; cell < cell_count_; ++cell) {
        const double g_wall = params_.cavity_wall_conductivity * a_cell * solid_frac /
                              cav.cavity_thickness;
        const double g_tsv =
            stack_.tsvs().cu_conductivity * tsv_area_cell[cell] / cav.cavity_thickness;
        const double r_mid = 1.0 / (g_wall + g_tsv);
        const double g =
            1.0 / (r_beol_cell(l) + r_mid + r_slab_cell(l + 1));
        couplings_.push_back({node(l, cell), node(l + 1, cell), g});
      }
    }

    // External (fluid) conductance totals per node: cavity k couples layer
    // k-1 through its BEOL face (g_dn) and layer k through its slab (g_up).
    for (std::size_t k = 0; k <= layer_count_; ++k) {
      if (k >= 1) {
        for (std::size_t cell = 0; cell < cell_count_; ++cell) {
          ext_diag_[node(k - 1, cell)] += g_fluid_dn_;
        }
      }
      if (k < layer_count_) {
        for (std::size_t cell = 0; cell < cell_count_; ++cell) {
          ext_diag_[node(k, cell)] += g_fluid_up_;
        }
      }
    }
  } else {
    // Air-cooled: bond material between dies, package on top.
    const double t_bond = stack_.bond_thickness();
    const double k_bond = params_.bond_conductivity;
    for (std::size_t l = 0; l + 1 < layer_count_; ++l) {
      for (std::size_t cell = 0; cell < cell_count_; ++cell) {
        const double g_bond = k_bond * a_cell / t_bond;
        const double g_tsv =
            stack_.tsvs().cu_conductivity * tsv_area_cell[cell] / t_bond;
        const double r_mid = 1.0 / (g_bond + g_tsv);
        const double g = 1.0 / (r_beol_cell(l) + r_mid + r_slab_cell(l + 1));
        couplings_.push_back({node(l, cell), node(l + 1, cell), g});
      }
    }
    // Top layer -> spreader through BEOL + TIM.
    const double r_tim_cell = params_.tim_thickness / (params_.tim_conductivity * a_cell);
    g_package_ = 1.0 / (r_beol_cell(layer_count_ - 1) + r_tim_cell);
    for (std::size_t cell = 0; cell < cell_count_; ++cell) {
      ext_diag_[node(layer_count_ - 1, cell)] += g_package_;
    }
  }

  // Fingerprint everything the assembly consumes (plus the shape and the
  // fluid/package coupling constants, which enter the RHS).
  std::uint64_t h = kMixSeed;
  // The canonical geometry fingerprint guards against distinct stacks whose
  // discretized networks happen to coincide at this grid resolution.
  hash_mix(h, stack_fingerprint(stack_));
  hash_mix(h, static_cast<std::uint64_t>(layer_count_));
  hash_mix(h, static_cast<std::uint64_t>(grid_.rows()));
  hash_mix(h, static_cast<std::uint64_t>(grid_.cols()));
  hash_mix(h, static_cast<std::uint64_t>(liquid ? 1 : 0));
  for (double c : capacitance_) hash_mix(h, c);
  for (double g : ext_diag_) hash_mix(h, g);
  // The coupling endpoints are a function of the shape mixed above (the
  // loops that emit them read nothing else), so only the conductances enter.
  for (const Coupling& c : couplings_) hash_mix(h, c.g);
  hash_mix(h, g_fluid_dn_);
  hash_mix(h, g_fluid_up_);
  hash_mix(h, g_package_);
  // The fluid elimination also reads the coolant's capacity rate and the
  // flow directions: equal fingerprints and equal flow vectors then give
  // bit-identical eliminated operators.
  hash_mix(h, params_.coolant.volumetric_heat_capacity());
  hash_mix(h, static_cast<std::uint64_t>(params_.alternate_flow_direction));
  topo_fingerprint_ = h;
}

void ThermalModel3D::set_block_power(std::size_t layer, const std::vector<double>& watts) {
  LIQUID3D_REQUIRE(layer < layer_count_, "layer index out of range");
  const BlockCellMap& map = maps_[layer];
  LIQUID3D_REQUIRE(watts.size() == map.block_count(), "block power arity mismatch");
  for (std::size_t cell = 0; cell < cell_count_; ++cell) {
    cell_power_[node(layer, cell)] = 0.0;
  }
  for (std::size_t b = 0; b < watts.size(); ++b) {
    // Non-finite power is a numerical blowup upstream (a diverged power
    // model), not a malformed configuration — keep it out of ConfigError's
    // `>= 0` check (NaN >= 0.0 is false) so it classifies as retriable.
    if (!std::isfinite(watts[b])) {
      throw SolverError("block power input is non-finite");
    }
    LIQUID3D_REQUIRE(watts[b] >= 0.0, "block power must be non-negative");
    for (const BlockCellMap::CellShare& share : map.cells_of(b)) {
      cell_power_[node(layer, share.cell)] += watts[b] * share.weight;
    }
  }
}

void ThermalModel3D::set_cavity_flow(VolumetricFlow per_cavity) {
  LIQUID3D_REQUIRE(stack_.has_cavities(), "flow only applies to liquid stacks");
  LIQUID3D_REQUIRE(per_cavity.m3_per_s() >= 0.0, "flow must be non-negative");
  if (std::any_of(cavity_flows_.begin(), cavity_flows_.end(),
                  [per_cavity](VolumetricFlow f) { return f != per_cavity; })) {
    settle_fluid();
  }
  std::fill(cavity_flows_.begin(), cavity_flows_.end(), per_cavity);
}

void ThermalModel3D::set_cavity_flow(const std::vector<VolumetricFlow>& per_cavity) {
  LIQUID3D_REQUIRE(stack_.has_cavities(), "flow only applies to liquid stacks");
  LIQUID3D_REQUIRE(per_cavity.size() == stack_.cavity_count(),
                   "flow vector arity must equal the cavity count");
  for (const VolumetricFlow& f : per_cavity) {
    LIQUID3D_REQUIRE(f.m3_per_s() >= 0.0, "flow must be non-negative");
  }
  if (per_cavity != cavity_flows_) settle_fluid();
  cavity_flows_.assign(per_cavity.begin(), per_cavity.end());
}

void ThermalModel3D::set_inlet_temperature(double celsius) {
  if (celsius != inlet_temperature_) settle_fluid();
  inlet_temperature_ = celsius;
}

void ThermalModel3D::set_ambient_temperature(double celsius) {
  params_.ambient_temperature = celsius;
}

void ThermalModel3D::initialize(double temperature_c) {
  std::fill(temps_.begin(), temps_.end(), temperature_c);
  for (auto& cavity : fluid_temp_) {
    std::fill(cavity.begin(), cavity.end(), inlet_temperature_);
  }
  std::fill(cavity_absorbed_.begin(), cavity_absorbed_.end(), 0.0);
  std::fill(cavity_outlet_.begin(), cavity_outlet_.end(), inlet_temperature_);
  fluid_stale_ = false;
  spreader_temp_ = params_.ambient_temperature;
  sink_temp_ = params_.ambient_temperature;
}

ThermalModel3D::CavityTotals ThermalModel3D::march_fluid(std::size_t cavity,
                                                         const double* temps,
                                                         double t_inlet,
                                                         double* fluid) const {
  const double w_cavity = params_.coolant.volumetric_heat_capacity() *
                          cavity_flows_[cavity].m3_per_s();
  const double w_row = w_cavity / static_cast<double>(grid_.rows());
  const bool has_below = cavity >= 1;
  const bool has_above = cavity < layer_count_;
  const double g_dn = has_below ? g_fluid_dn_ : 0.0;
  const double g_up = has_above ? g_fluid_up_ : 0.0;
  const double g_sum = g_dn + g_up;
  // Per-cavity loop invariants, hoisted by hand: the compiler must not
  // replace a division by a reciprocal multiply on its own (the rounding
  // differs), and three divisions per cell dominated the march.
  const bool flowing = w_row > 1e-12;
  const double inv_denom =
      flowing ? 1.0 / (1.0 + g_sum / (2.0 * w_row)) : 0.0;
  const double inv_w = flowing ? 1.0 / w_row : 0.0;
  const double half_inv_w = 0.5 * inv_w;

  // Counterflow routing: odd cavities flow -x (inlet at the right edge).
  const bool reverse = params_.alternate_flow_direction && (cavity % 2 == 1);

  double absorbed = 0.0;
  double outlet_acc = 0.0;
  for (std::size_t r = 0; r < grid_.rows(); ++r) {
    double t_in = t_inlet;
    for (std::size_t ci = 0; ci < grid_.cols(); ++ci) {
      const std::size_t c = reverse ? grid_.cols() - 1 - ci : ci;
      const std::size_t cell = grid_.index(r, c);
      const double t_below = has_below ? temps[node(cavity - 1, cell)] : 0.0;
      const double t_above = has_above ? temps[node(cavity, cell)] : 0.0;
      double t_f;
      if (w_row > 1e-12) {
        // Heat balance with the cell-mean fluid temperature
        // T_f = T_in + q/(2W):  q (1 + G/(2W)) = Σ g_i T_wall_i - G T_in.
        const double num = g_dn * t_below + g_up * t_above - g_sum * t_in;
        const double q = num * inv_denom;
        t_f = t_in + q * half_inv_w;
        t_in += q * inv_w;
        absorbed += q;
      } else {
        // Stagnant coolant: pure conduction equilibrium between the walls.
        t_f = g_sum > 0.0 ? (g_dn * t_below + g_up * t_above) / g_sum
                          : t_inlet;
      }
      fluid[cell] = t_f;
    }
    outlet_acc += t_in;
  }
  return {absorbed, outlet_acc / static_cast<double>(grid_.rows())};
}

void ThermalModel3D::settle_fluid() const {
  if (!fluid_stale_) return;
  for (std::size_t k = 0; k < fluid_temp_.size(); ++k) {
    const CavityTotals totals =
        march_fluid(k, temps_.data(), inlet_temperature_, fluid_temp_[k].data());
    cavity_absorbed_[k] = totals.absorbed;
    cavity_outlet_[k] = totals.outlet;
  }
  fluid_stale_ = false;
}

void ThermalModel3D::advance(double inv_dt) {
  temps_prev_.assign(temps_.begin(), temps_.end());
  const LuSlot& slot = lu_slot(inv_dt);
  assemble_direct_rhs(slot, inv_dt, rhs_.data());
  solve_direct(*slot.lu, rhs_);
  temps_.swap(rhs_);
  finish_direct_solve();
}

void ThermalModel3D::assemble_direct_rhs(const LuSlot& slot, double inv_dt,
                                         double* out) const {
  if (stack_.has_cavities()) {
    for (std::size_t i = 0; i < node_count_; ++i) {
      out[i] = capacitance_[i] * inv_dt * temps_prev_[i] + cell_power_[i] +
               slot.inlet_coef[i] * inlet_temperature_;
    }
  } else {
    // Stored heat + injected power + the package's pull on the top layer.
    for (std::size_t i = 0; i < node_count_; ++i) {
      out[i] = capacitance_[i] * inv_dt * temps_prev_[i] + cell_power_[i];
    }
    for (std::size_t cell = 0; cell < cell_count_; ++cell) {
      out[node(layer_count_ - 1, cell)] += g_package_ * spreader_temp_;
    }
  }
  // A single NaN/Inf in the RHS (a power-model blowup, a diverged fluid
  // state) would silently poison the entire field through the solve;
  // catch it at the boundary where the cause is still nameable.
  require_finite(out, node_count_, kNonFiniteRhs);
}

void ThermalModel3D::solve_direct(const BandedLuMatrix& factor,
                                  std::span<double> rhs) {
  static obs::Histogram& solve_h =
      obs::Registry::global().histogram("liquid3d_solver_direct_solve_seconds");
  obs::ScopedTimer t(solve_h);
  factor.solve(rhs);
}

void ThermalModel3D::finish_direct_solve() {
  require_finite(temps_.data(), node_count_, kNonFiniteSolution);
  fluid_stale_ = stack_.has_cavities();  // the coolant readbacks march on demand
}

double ThermalModel3D::max_change() const {
  double change = 0.0;
  for (std::size_t i = 0; i < node_count_; ++i) {
    change = std::max(change, std::abs(temps_[i] - temps_prev_[i]));
  }
  return change;
}

const LuSlot& ThermalModel3D::lu_slot(double inv_dt) {
  LuSlot* target = &lu_slot_;
  if (factor_cache_ != nullptr) {
    if (LuSlot* hit = factor_cache_->find(topo_fingerprint_, inv_dt, cavity_flows_)) {
      return *hit;
    }
    target = &factor_cache_->evict();
  } else if (lu_slot_.holds(topo_fingerprint_, inv_dt, cavity_flows_)) {
    return lu_slot_;
  }
  LuSlot& slot = *target;
  static obs::Histogram& assemble_h =
      obs::Registry::global().histogram("liquid3d_solver_assemble_seconds");
  static obs::Histogram& factorize_h =
      obs::Registry::global().histogram("liquid3d_solver_factorize_seconds");
  const std::size_t bw = grid_.cols() * layer_count_;
  // A cache slot may hold another grid's band.
  if (!slot.lu || slot.lu->size() != node_count_ || slot.lu->lower_bandwidth() != bw) {
    slot.lu = std::make_unique<BandedLuMatrix>(node_count_, bw, bw);
  }
  {
    obs::ScopedTimer t(assemble_h);
    if (stack_.has_cavities()) {
      build_eliminated_system(inv_dt, *slot.lu, slot.inlet_coef, slot.scratch);
    } else {
      BandedLuMatrix& m = *slot.lu;
      m.set_zero();
      for (std::size_t i = 0; i < node_count_; ++i) {
        m.add_diagonal(i, capacitance_[i] * inv_dt + ext_diag_[i]);
      }
      for (const Coupling& c : couplings_) m.add_coupling(c.a, c.b, c.g);
    }
  }
  {
    obs::ScopedTimer t(factorize_h);
    slot.lu->factorize();
  }
  slot.fingerprint = topo_fingerprint_;
  slot.inv_dt = inv_dt;
  slot.flows = cavity_flows_;
  return slot;
}

void ThermalModel3D::step(double dt_s) {
  LIQUID3D_REQUIRE(dt_s > 0.0, "time step must be positive");
  advance(1.0 / dt_s);
  if (!stack_.has_cavities()) update_package_transient(dt_s);
}

bool ThermalModel3D::shares_lu_key(const ThermalModel3D& other) const {
  return topo_fingerprint_ == other.topo_fingerprint_ &&
         cavity_flows_ == other.cavity_flows_;
}

void ThermalModel3D::step_lockstep(std::span<ThermalModel3D* const> models,
                                   double dt_s) {
  LIQUID3D_REQUIRE(dt_s > 0.0, "time step must be positive");
  static obs::Histogram& rhs_h =
      obs::Registry::global().histogram("liquid3d_batch_rhs_per_solve");
  for (std::size_t i = 0; i < models.size(); ++i) {
    ThermalModel3D& lead = *models[i];
    // The first model of each key leads its group; later holders of the
    // key were solved with it.
    const auto same_key = [&](const ThermalModel3D* m) {
      return lead.shares_lu_key(*m);
    };
    if (std::any_of(models.begin(), models.begin() + i, same_key)) continue;
    std::vector<ThermalModel3D*>& group = lead.lockstep_group_;
    group.clear();
    group.push_back(&lead);
    std::copy_if(models.begin() + i + 1, models.end(), std::back_inserter(group),
                 same_key);
    rhs_h.record(static_cast<double>(group.size()));
    if (group.size() == 1) {
      lead.step(dt_s);
    } else {
      lead.step_group(dt_s);
    }
  }
}

void ThermalModel3D::step_group(double dt_s) {
  // Equal keys give bit-identical factors (the topology fingerprint
  // contract), so the group solves through the lead's: its own slot's or
  // its lent cache's.  Everything else — right-hand
  // side, solution and checks — stays per model, exactly as in advance().
  const double inv_dt = 1.0 / dt_s;
  const std::size_t k = lockstep_group_.size();
  const LuSlot& slot = lu_slot(inv_dt);
  lockstep_rhs_.resize(k * node_count_);
  for (std::size_t v = 0; v < k; ++v) {
    ThermalModel3D& m = *lockstep_group_[v];
    m.temps_prev_.assign(m.temps_.begin(), m.temps_.end());
    m.assemble_direct_rhs(slot, inv_dt, lockstep_rhs_.data() + v * node_count_);
  }
  solve_direct(*slot.lu, lockstep_rhs_);
  for (std::size_t v = 0; v < k; ++v) {
    ThermalModel3D& m = *lockstep_group_[v];
    const double* x = lockstep_rhs_.data() + v * node_count_;
    m.temps_.assign(x, x + node_count_);
    m.finish_direct_solve();
    if (!stack_.has_cavities()) m.update_package_transient(dt_s);
  }
}

void ThermalModel3D::update_package_transient(double dt_s) {
  // Explicit update is stable here: the package time constants (seconds) are
  // far above the step size.
  double q_in = 0.0;
  for (std::size_t cell = 0; cell < cell_count_; ++cell) {
    q_in += g_package_ * (temps_[node(layer_count_ - 1, cell)] - spreader_temp_);
  }
  const double q_ss = (spreader_temp_ - sink_temp_) / params_.spreader_to_sink_resistance;
  const double q_sa = (sink_temp_ - params_.ambient_temperature) /
                      params_.sink_to_ambient_resistance;
  spreader_temp_ += dt_s * (q_in - q_ss) / params_.spreader_capacitance;
  sink_temp_ += dt_s * (q_ss - q_sa) / params_.sink_capacitance;
}

void ThermalModel3D::export_steady_operator(SteadyOperator& out) const {
  const bool liquid = stack_.has_cavities();
  out.nodes = liquid ? node_count_ : node_count_ + 2;
  out.silicon_nodes = node_count_;
  out.layer_count = layer_count_;
  out.liquid = liquid;
  out.t_ref = liquid ? inlet_temperature_ : params_.ambient_temperature;
  out.row_ptr.clear();
  out.col.clear();
  out.val.clear();
  out.row_ptr.reserve(out.nodes + 1);

  if (liquid) {
    for (const VolumetricFlow& f : cavity_flows_) {
      LIQUID3D_REQUIRE(f.m3_per_s() > 0.0,
                       "steady operator export requires nonzero flow in "
                       "every cavity");
    }
    // The fluid-eliminated assembly is exact algebra for any flow (only the
    // unpivoted *factorization* needs diagonal dominance, and the export
    // never factorizes), so the operator is valid in the advection-limited
    // regime too.  It is the matrix of solve_steady_state's direct solve.
    const std::size_t bw = grid_.cols() * layer_count_;
    BandedLuMatrix m(node_count_, bw, bw);
    std::vector<double> scratch;
    build_eliminated_system(0.0, m, out.ref_coef, scratch);
    out.row_ptr.push_back(0);
    for (std::size_t i = 0; i < node_count_; ++i) {
      const std::size_t j0 = i >= bw ? i - bw : 0;
      const std::size_t j1 = std::min(node_count_ - 1, i + bw);
      for (std::size_t j = j0; j <= j1; ++j) {
        const double v = m.at(i, j);
        if (v != 0.0) {
          out.col.push_back(j);
          out.val.push_back(v);
        }
      }
      out.row_ptr.push_back(out.col.size());
    }
  } else {
    // Silicon conduction network plus the two-node package (spreader, sink)
    // appended as unknowns.  solve_steady_state solves the same system with
    // the package eliminated in closed form.
    const std::size_t spr = node_count_;
    const std::size_t snk = node_count_ + 1;
    std::vector<std::map<std::size_t, double>> rows(out.nodes);
    const auto add = [&rows](std::size_t i, std::size_t j, double v) {
      rows[i][j] += v;
    };
    for (const Coupling& c : couplings_) {
      add(c.a, c.a, c.g);
      add(c.b, c.b, c.g);
      add(c.a, c.b, -c.g);
      add(c.b, c.a, -c.g);
    }
    for (std::size_t cell = 0; cell < cell_count_; ++cell) {
      const std::size_t i = node(layer_count_ - 1, cell);
      add(i, i, g_package_);
      add(i, spr, -g_package_);
      add(spr, i, -g_package_);
      add(spr, spr, g_package_);
    }
    const double g_ss = 1.0 / params_.spreader_to_sink_resistance;
    const double g_sa = 1.0 / params_.sink_to_ambient_resistance;
    add(spr, spr, g_ss);
    add(spr, snk, -g_ss);
    add(snk, spr, -g_ss);
    add(snk, snk, g_ss + g_sa);
    out.ref_coef.assign(out.nodes, 0.0);
    out.ref_coef[snk] = g_sa;
    out.row_ptr.push_back(0);
    for (std::size_t i = 0; i < out.nodes; ++i) {
      for (const auto& [j, v] : rows[i]) {
        if (v != 0.0) {
          out.col.push_back(j);
          out.val.push_back(v);
        }
      }
      out.row_ptr.push_back(out.col.size());
    }
  }

  out.block_inputs.assign(layer_count_, {});
  for (std::size_t l = 0; l < layer_count_; ++l) {
    const BlockCellMap& map = maps_[l];
    out.block_inputs[l].resize(map.block_count());
    for (std::size_t b = 0; b < map.block_count(); ++b) {
      auto& shares = out.block_inputs[l][b];
      shares.clear();
      for (const BlockCellMap::CellShare& share : map.cells_of(b)) {
        shares.push_back({node(l, share.cell), share.weight});
      }
    }
  }
}

void ThermalModel3D::solve_steady_state(const std::function<bool()>& pre_step) {
  const bool liquid = stack_.has_cavities();
  // Zero flow in any cavity of a liquid stack has no bounded steady state
  // (every heat path ends in the coolant); fail fast instead of iterating
  // forever.
  for (const VolumetricFlow& f : cavity_flows_) {
    LIQUID3D_REQUIRE(f.m3_per_s() > 0.0,
                     "steady state of a liquid stack requires nonzero flow "
                     "in every cavity");
  }
  // The steady state is the implicit step at 1/dt = 0.  For a fixed power
  // map that is one solve; the loop only iterates the temperature-dependent
  // power (leakage) supplied through pre_step.  Near runaway the leakage
  // loop gain approaches 1 and convergence stalls — like the seed's outer
  // fixed point (80 iterations, 0.05 K) we return the last iterate rather
  // than failing: callers treat a hot non-converged point as "needs more
  // flow".
  constexpr std::size_t kMaxPowerIterations = 80;
  constexpr double kPowerTolerance = 0.05;  // K, the seed's leakage criterion
  for (std::size_t iter = 0; iter < kMaxPowerIterations; ++iter) {
    if (pre_step && !pre_step()) return;
    if (!liquid) {
      // An air stack's only external coupling is the package on its top
      // layer, so at steady state all the power crosses the spreader and
      // the sink in series, and the silicon solves against T_spreader.
      const double p_total = total_power();
      sink_temp_ = params_.ambient_temperature +
                   p_total * params_.sink_to_ambient_resistance;
      spreader_temp_ = sink_temp_ + p_total * params_.spreader_to_sink_resistance;
    }
    advance(0.0);
    if (!pre_step || max_change() < kPowerTolerance) return;
  }
}

double ThermalModel3D::cell_temperature(std::size_t layer, std::size_t cell) const {
  LIQUID3D_REQUIRE(layer < layer_count_ && cell < cell_count_, "index out of range");
  return temps_[node(layer, cell)];
}

double ThermalModel3D::block_temperature(std::size_t layer, std::size_t block) const {
  LIQUID3D_REQUIRE(layer < layer_count_, "layer index out of range");
  return maps_[layer].block_max(temps_.data() + layer, layer_count_, block);
}

double ThermalModel3D::block_mean_temperature(std::size_t layer, std::size_t block) const {
  LIQUID3D_REQUIRE(layer < layer_count_, "layer index out of range");
  return maps_[layer].block_mean(temps_.data() + layer, layer_count_, block);
}

double ThermalModel3D::max_temperature() const {
  return *std::max_element(temps_.begin(), temps_.end());
}

double ThermalModel3D::min_temperature() const {
  return *std::min_element(temps_.begin(), temps_.end());
}

double ThermalModel3D::cavity_max_temperature(std::size_t cavity) const {
  LIQUID3D_REQUIRE(stack_.has_cavities() && cavity < stack_.cavity_count(),
                   "cavity index out of range");
  double best = -std::numeric_limits<double>::infinity();
  for (std::size_t l : {cavity >= 1 ? cavity - 1 : layer_count_, cavity}) {
    if (l >= layer_count_) continue;  // edge cavities touch a single die
    for (std::size_t cell = 0; cell < cell_count_; ++cell) {
      best = std::max(best, temps_[node(l, cell)]);
    }
  }
  return best;
}

void ThermalModel3D::cavity_max_temperatures(std::vector<double>& out) const {
  out.resize(stack_.cavity_count());
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k] = cavity_max_temperature(k);
  }
}

double ThermalModel3D::fluid_outlet_temperature(std::size_t cavity) const {
  LIQUID3D_REQUIRE(cavity < cavity_outlet_.size(), "cavity index out of range");
  settle_fluid();
  return cavity_outlet_[cavity];
}

double ThermalModel3D::cavity_absorbed_power(std::size_t cavity) const {
  LIQUID3D_REQUIRE(cavity < cavity_absorbed_.size(), "cavity index out of range");
  settle_fluid();
  return cavity_absorbed_[cavity];
}

double ThermalModel3D::total_power() const {
  double acc = 0.0;
  for (double p : cell_power_) acc += p;
  return acc;
}

void ThermalModel3D::save_state(ThermalState& out) const {
  settle_fluid();
  out.temps.assign(temps_.begin(), temps_.end());
  out.fluid_temp.resize(fluid_temp_.size());
  for (std::size_t k = 0; k < fluid_temp_.size(); ++k) {
    out.fluid_temp[k].assign(fluid_temp_[k].begin(), fluid_temp_[k].end());
  }
  out.cavity_absorbed.assign(cavity_absorbed_.begin(), cavity_absorbed_.end());
  out.cavity_outlet.assign(cavity_outlet_.begin(), cavity_outlet_.end());
  out.spreader_temp = spreader_temp_;
  out.sink_temp = sink_temp_;
}

void ThermalModel3D::restore_state(const ThermalState& state) {
  LIQUID3D_REQUIRE(state.temps.size() == temps_.size() &&
                       state.fluid_temp.size() == fluid_temp_.size(),
                   "state shape does not match this model");
  temps_.assign(state.temps.begin(), state.temps.end());
  for (std::size_t k = 0; k < fluid_temp_.size(); ++k) {
    LIQUID3D_REQUIRE(state.fluid_temp[k].size() == fluid_temp_[k].size(),
                     "fluid state shape does not match this model");
    fluid_temp_[k].assign(state.fluid_temp[k].begin(), state.fluid_temp[k].end());
  }
  cavity_absorbed_.assign(state.cavity_absorbed.begin(), state.cavity_absorbed.end());
  cavity_outlet_.assign(state.cavity_outlet.begin(), state.cavity_outlet.end());
  fluid_stale_ = false;
  spreader_temp_ = state.spreader_temp;
  sink_temp_ = state.sink_temp;
}

}  // namespace liquid3d
