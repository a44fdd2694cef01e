#include "serve/rom.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/error.hpp"
#include "thermal/steady_operator.hpp"

namespace liquid3d {

BlockLayout block_layout(const Stack3D& stack) {
  BlockLayout layout(stack.layer_count());
  for (std::size_t l = 0; l < stack.layer_count(); ++l) {
    for (const Block& block : stack.layer(l).floorplan.blocks()) {
      layout[l].push_back(block.type);
    }
  }
  return layout;
}

ReducedSteadyModel ReducedSteadyModel::build(ThermalModel3D& model,
                                             const RomParams& params) {
  LIQUID3D_REQUIRE(params.gain_safety >= 1.0, "ROM gain safety must be >= 1");

  ReducedSteadyModel rom;
  rom.params_ = params;
  SteadyOperator op;
  model.export_steady_operator(op);
  const std::size_t n = op.nodes;
  const std::size_t layers = op.layer_count;
  const std::size_t cells = op.silicon_nodes / layers;
  const double t_ref = op.t_ref;

  rom.layout_ = block_layout(model.stack());
  std::vector<std::vector<double>> zero_watts(layers);
  for (std::size_t l = 0; l < layers; ++l) {
    rom.first_input_.push_back(rom.inputs_);
    rom.inputs_ += rom.layout_[l].size();
    zero_watts[l].assign(rom.layout_[l].size(), 0.0);
  }
  const std::size_t inputs = rom.inputs_;
  rom.cells_ = cells;
  rom.influence_.assign(layers * inputs * cells, 0.0);
  rom.residual_l1_.assign(inputs, 0.0);

  // Reads the field in place: the coolant is never read, so its pending
  // march never runs.
  const auto solve_snapshot = [&](std::vector<double>& out_field) {
    model.solve_steady_state();
    const std::span<const double> temps = model.temperatures();
    std::copy(temps.begin(), temps.end(), out_field.begin());
    if (!op.liquid) {
      out_field[op.silicon_nodes] = model.spreader_temperature();
      out_field[op.silicon_nodes + 1] = model.sink_temperature();
    }
  };

  // The constant vector: with zero power every boundary reference is t_ref
  // and the field is uniformly t_ref, so A·1 = c up to rounding.
  std::vector<double> field(n, 1.0);
  std::vector<double> product(n);
  op.multiply(field.data(), product.data());
  for (std::size_t i = 0; i < n; ++i) {
    rom.constant_residual_l1_ += std::abs(product[i] - op.ref_coef[i]);
  }

  // Influence solutions g_b = A⁻¹ m_b: the deviation field of 1 W in block
  // (l, b), solved through the model's own steady path (the LU solve at
  // 1/dt = 0).
  for (std::size_t l = 0; l < layers; ++l) {
    for (std::size_t b = 0; b < zero_watts[l].size(); ++b) {
      for (std::size_t l2 = 0; l2 < layers; ++l2) {
        if (l2 == l) {
          zero_watts[l][b] = 1.0;
          model.set_block_power(l, zero_watts[l]);
          zero_watts[l][b] = 0.0;
        } else {
          model.set_block_power(l2, zero_watts[l2]);
        }
      }
      solve_snapshot(field);
      const std::size_t input = rom.first_input_[l] + b;
      // Its peak samples the residual→temperature amplification of A⁻¹.
      for (double& t : field) {
        t -= t_ref;
        rom.gain_c_per_w_ = std::max(rom.gain_c_per_w_, std::abs(t));
      }
      op.multiply(field.data(), product.data());
      for (const SteadyOperator::InputShare& share : op.block_inputs[l][b]) {
        product[share.node] -= share.weight;
      }
      for (double r : product) rom.residual_l1_[input] += std::abs(r);
      for (std::size_t cell = 0; cell < cells; ++cell) {
        for (std::size_t layer = 0; layer < layers; ++layer) {
          rom.influence_[(layer * inputs + input) * cells + cell] =
              field[cell * layers + layer];
        }
      }
    }
  }

  // Certification: deterministic probe power mixtures, reduced vs full.
  Scratch scratch;
  RomEvaluation eval;
  std::vector<std::vector<double>> probe_watts = zero_watts;
  for (std::size_t probe = 0; probe < params.certification_probes; ++probe) {
    std::size_t cursor = 0;
    for (std::size_t l = 0; l < layers; ++l) {
      for (std::size_t b = 0; b < probe_watts[l].size(); ++b, ++cursor) {
        // Probe 0: uniform 1 W; later probes: deterministic skewed ramps.
        probe_watts[l][b] =
            probe == 0 ? 1.0
                       : 0.25 + 1.75 * static_cast<double>(
                                           (cursor * 7 + probe * 3) % 8) /
                                    7.0;
      }
      model.set_block_power(l, probe_watts[l]);
    }
    solve_snapshot(field);
    const double full_tmax =
        *std::max_element(field.begin(), field.begin() + op.silicon_nodes);
    rom.evaluate(probe_watts, t_ref, /*max_error_c=*/0.0, scratch, eval);
    rom.certified_error_c_ =
        std::max(rom.certified_error_c_, std::abs(eval.t_max_c - full_tmax));
  }
  return rom;
}

void ReducedSteadyModel::evaluate(
    const std::vector<std::vector<double>>& block_watts, double t_ref_c,
    double max_error_c, Scratch& s, RomEvaluation& out) const {
  LIQUID3D_REQUIRE(block_watts.size() <= layout_.size(),
                   "ROM query has more layers than the stack");
  LIQUID3D_REQUIRE(std::isfinite(t_ref_c), "ROM reference temperature must be finite");
  const double bound = max_error_c > 0.0 ? max_error_c : params_.max_error_c;

  // Nonzero powers, and the residual bound they carry.
  s.inputs.clear();
  s.watts.clear();
  double residual = std::abs(t_ref_c) * constant_residual_l1_;
  for (std::size_t l = 0; l < block_watts.size(); ++l) {
    LIQUID3D_REQUIRE(block_watts[l].size() <= layout_[l].size(),
                     "ROM query has more blocks than the layer's floorplan");
    for (std::size_t b = 0; b < block_watts[l].size(); ++b) {
      const double w = block_watts[l][b];
      if (w == 0.0) continue;
      if (!std::isfinite(w)) throw SolverError("ROM query power is non-finite");
      LIQUID3D_REQUIRE(w >= 0.0, "ROM query power must be non-negative");
      s.inputs.push_back(first_input_[l] + b);
      s.watts.push_back(w);
      residual += w * residual_l1_[first_input_[l] + b];
    }
  }

  // T = T_ref + Σ w_b g_b, one layer at a time, tracking the maxima.
  const std::size_t layers = layout_.size();
  out.layer_max_c.resize(layers);
  out.t_max_c = -1e300;
  s.field.resize(cells_);
  for (std::size_t layer = 0; layer < layers; ++layer) {
    std::fill(s.field.begin(), s.field.end(), t_ref_c);
    const double* rows = influence_.data() + layer * inputs_ * cells_;
    double* field = s.field.data();
    std::size_t k = 0;
    // Four columns per pass: a quarter of the field loads and stores.
    for (; k + 4 <= s.inputs.size(); k += 4) {
      const double* g0 = rows + s.inputs[k] * cells_;
      const double* g1 = rows + s.inputs[k + 1] * cells_;
      const double* g2 = rows + s.inputs[k + 2] * cells_;
      const double* g3 = rows + s.inputs[k + 3] * cells_;
      const double w0 = s.watts[k], w1 = s.watts[k + 1];
      const double w2 = s.watts[k + 2], w3 = s.watts[k + 3];
      for (std::size_t cell = 0; cell < cells_; ++cell) {
        field[cell] += w0 * g0[cell] + w1 * g1[cell] + w2 * g2[cell] + w3 * g3[cell];
      }
    }
    for (; k < s.inputs.size(); ++k) {
      const double w = s.watts[k];
      const double* g = rows + s.inputs[k] * cells_;
      for (std::size_t cell = 0; cell < cells_; ++cell) field[cell] += w * g[cell];
    }
    const double layer_max = *std::max_element(s.field.begin(), s.field.end());
    out.layer_max_c[layer] = layer_max;
    out.t_max_c = std::max(out.t_max_c, layer_max);
  }

  out.estimated_error_c = params_.gain_safety * gain_c_per_w_ * residual;
  out.within_bound = out.estimated_error_c <= bound;
}

}  // namespace liquid3d
