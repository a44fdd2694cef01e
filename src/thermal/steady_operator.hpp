// steady_operator.hpp — the steady-state thermal operator exported as an
// explicit sparse linear system, for offline model-order reduction.
//
// For a fixed per-cavity flow vector the steady state of either cooling
// configuration is *exactly linear* in the injected block powers and the
// boundary reference temperature:
//
//   A T = p + ref_coef * T_ref
//
//  * liquid stacks: A is the fluid-eliminated steady operator (the same
//    non-symmetric banded system the direct steady solve factorizes;
//    advection makes upstream cells heat downstream ones, not vice versa),
//    T_ref is the coolant inlet temperature, and ref_coef collects the
//    inlet constants the channel-march elimination produces;
//  * air stacks: A is the conduction network over the silicon nodes plus
//    two appended package unknowns (spreader, sink), T_ref is ambient, and
//    ref_coef has a single entry on the sink row (1/R_sa).  The steady
//    solve eliminates the two package rows in closed form — all the power
//    crosses them in series — and solves the silicon rows alone.
//
// The export is a snapshot: it captures the operator for the flow vector
// set on the model at export time.  serve/rom.hpp superposes steady
// influence solutions of this operator; the CSR `multiply` certifies their
// residuals when the reduced model is built.
#pragma once

#include <cstddef>
#include <vector>

namespace liquid3d {

struct SteadyOperator {
  std::size_t nodes = 0;          ///< unknowns (silicon [+2 package for air])
  std::size_t silicon_nodes = 0;  ///< leading entries that are junction cells
  std::size_t layer_count = 0;    ///< stack layers (node = cell*layers+layer)
  bool liquid = false;
  double t_ref = 0.0;  ///< inlet (liquid) / ambient (air) at export time [°C]

  // CSR storage of A (general: the liquid operator is non-symmetric).
  std::vector<std::size_t> row_ptr;  ///< size nodes+1
  std::vector<std::size_t> col;
  std::vector<double> val;
  /// Per-row coefficient of T_ref on the right-hand side [W/K].
  std::vector<double> ref_coef;

  /// Unit-power injection map: 1 W into block b of layer l distributes
  /// `weight` watts onto `node` (mirrors ThermalModel3D::set_block_power).
  struct InputShare {
    std::size_t node;
    double weight;
  };
  /// [layer][block] -> node shares.
  std::vector<std::vector<std::vector<InputShare>>> block_inputs;

  [[nodiscard]] std::size_t nonzeros() const { return val.size(); }

  /// y = A x (dense vectors of length `nodes`).
  void multiply(const double* x, double* y) const {
    for (std::size_t i = 0; i < nodes; ++i) {
      double acc = 0.0;
      for (std::size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
        acc += val[k] * x[col[k]];
      }
      y[i] = acc;
    }
  }
};

}  // namespace liquid3d
