// rom.hpp — reduced-order steady thermal model by exact superposition.
//
// The steady state is exactly linear in the block powers and the boundary
// reference temperature (thermal/steady_operator.hpp):  A T = p + c T_ref.
// With zero power the field is uniformly T_ref (A·1 = c), so the answer to
// any power map w is
//
//   T = T_ref·1 + Σ_b w_b·g_b,     g_b = A⁻¹ m_b,
//
// where m_b spreads 1 W over block b's nodes.  Offline, per (topology, flow
// vector), the builder solves one full steady state per floorplan block
// through the model's own steady path — the solve a force_full query makes
// — so reduced answers are the full solver's answers, recombined.  It keeps
// only the silicon rows of each g_b, layer-major ([layer][block][cell];
// silicon node = cell·layers + layer).  Nothing is truncated: the "basis" is the constant vector plus
// every block's influence solution, and no projection or reduced solve is
// needed.
//
// Online, a steady query is one small GEMV per layer (cells × blocks, zero
// powers skipped) plus a running maximum.  Microseconds, no factorization,
// no fluid march, no operator product.
//
// Error semantics: the residuals are certified once, at build.  Each
// column's ‖A g_b − m_b‖₁ and the constant vector's ‖A·1 − c‖₁ bound the
// answer's true residual by the triangle inequality:
//
//   ‖A T − (p + c T_ref)‖₁ ≤ Σ_b w_b‖A g_b − m_b‖₁ + |T_ref|·‖A·1 − c‖₁,
//
// and `estimated_error_c` maps that bound through an amplification gain
// sampled offline (max ‖g_b‖_∞ over the inputs, times `gain_safety`).  It
// is a calibrated estimator, not a proven a-priori bound — the builder also
// certifies answers against full solves on probe power vectors, and the
// service falls back to the full solver whenever the estimate exceeds the
// query's bound.
#pragma once

#include <cstddef>
#include <vector>

#include "geom/floorplan.hpp"
#include "thermal/model3d.hpp"

namespace liquid3d {

struct RomParams {
  /// Default per-query error bound [K]; queries may override.
  double max_error_c = 0.05;
  /// Safety factor on the sampled residual→temperature gain.
  double gain_safety = 4.0;
  /// Offline certification probes (deterministic power mixtures compared
  /// against full steady solves); 0 disables certification.
  std::size_t certification_probes = 3;
};

/// A stack's block types per [layer][block] (floorplan order).
using BlockLayout = std::vector<std::vector<BlockType>>;
[[nodiscard]] BlockLayout block_layout(const Stack3D& stack);

/// One reduced steady query answer.
struct RomEvaluation {
  double t_max_c = 0.0;
  std::vector<double> layer_max_c;   ///< per-layer silicon maxima [°C]
  double estimated_error_c = 0.0;    ///< residual-based estimate [K]
  bool within_bound = false;         ///< estimate <= the query's bound
};

class ReducedSteadyModel {
 public:
  /// Reusable per-thread work vectors: `evaluate` is const and allocation
  /// free after the first call with a given scratch.
  struct Scratch {
    std::vector<std::size_t> inputs;  ///< flat indices of nonzero powers
    std::vector<double> watts;        ///< their powers
    std::vector<double> field;        ///< one layer's silicon temperatures
  };

  /// Build offline from the full model under its *current* flow vector.
  /// Runs one full steady solve per floorplan block (through the model's
  /// own steady path, so reduced answers are consistent with full ones),
  /// certifies each influence solution's residual against the exported
  /// operator, and checks probe answers against full solves.  The model's
  /// power map and temperature field are left at the last snapshot state —
  /// callers own re-setting them.
  [[nodiscard]] static ReducedSteadyModel build(ThermalModel3D& model,
                                                const RomParams& params);

  /// Answer a steady query: `block_watts[layer][block]` (missing layers or
  /// blocks = 0 W), boundary reference `t_ref_c` (inlet / ambient), and an
  /// error bound (<= 0 uses RomParams::max_error_c).  Thread-safe const.
  void evaluate(const std::vector<std::vector<double>>& block_watts,
                double t_ref_c, double max_error_c, Scratch& scratch,
                RomEvaluation& out) const;

  /// Superposition dimension: the constant vector plus one influence
  /// solution per floorplan block.
  [[nodiscard]] std::size_t dimension() const { return inputs_ + 1; }
  /// The block layout the model was built on (validates and expands
  /// queries without rebuilding the stack).
  [[nodiscard]] const BlockLayout& layout() const { return layout_; }
  /// Max |reduced − full| T_max over the certification probes [K].
  [[nodiscard]] double certified_error_c() const { return certified_error_c_; }
  /// Sampled residual→temperature amplification [K/W] (before safety).
  [[nodiscard]] double gain_c_per_w() const { return gain_c_per_w_; }
  [[nodiscard]] const RomParams& params() const { return params_; }

 private:
  ReducedSteadyModel() = default;

  RomParams params_;
  BlockLayout layout_;
  std::vector<std::size_t> first_input_;  ///< flat index of each layer's block 0
  std::size_t inputs_ = 0;                ///< total floorplan blocks
  std::size_t cells_ = 0;                 ///< silicon cells per layer
  /// Silicon rows of the influence solutions, [layer][input][cell].
  std::vector<double> influence_;
  std::vector<double> residual_l1_;   ///< ‖A g_b − m_b‖₁ per input [W]
  double constant_residual_l1_ = 0.0; ///< ‖A·1 − c‖₁ [W/K]
  double gain_c_per_w_ = 0.0;
  double certified_error_c_ = 0.0;
};

}  // namespace liquid3d
