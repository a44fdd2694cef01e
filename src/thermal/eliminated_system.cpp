// eliminated_system.cpp — assembly of the fluid-eliminated operator
// C inv_dt + G_elim(flows) for liquid stacks (ThermalModel3D's LU slot
// and steady-operator export).
//
// Entries are written straight into the LU band's column storage.  This TU
// builds with floating-point contraction off (see CMakeLists), so every
// `entry += a * b` below is a rounded product followed by an add — the
// rounding these entries have always had — while the inlet coefficient
// keeps its fused multiply-add through madd().
#include <algorithm>
#include <cstddef>

#include "common/error.hpp"
#include "common/madd.hpp"
#include "thermal/model3d.hpp"

namespace liquid3d {

void ThermalModel3D::build_eliminated_system(double inv_dt, BandedLuMatrix& m,
                                             std::vector<double>& inlet_coef,
                                             std::vector<double>& scratch) const {
  LIQUID3D_REQUIRE(stack_.has_cavities(), "fluid elimination needs a liquid stack");
  const std::size_t cols = grid_.cols();
  LIQUID3D_ASSERT(m.size() == node_count_ && m.lower_bandwidth() >= cols * layer_count_ &&
                      m.upper_bandwidth() >= cols * layer_count_,
                  "eliminated system needs an n x n band of half-width cols x layers");
  m.set_zero();
  inlet_coef.assign(node_count_, 0.0);
  // col(j)[i] is A(i, j): column j's run of the band, indexed by row.
  double* const band = m.band().data();
  const std::size_t stride = m.lower_bandwidth() + m.upper_bandwidth();
  const auto col = [&](std::size_t j) {
    return band + j * stride + m.upper_bandwidth();
  };

  // Stored heat (none at inv_dt = 0, the true steady state) and the
  // conduction network.
  for (std::size_t i = 0; i < node_count_; ++i) {
    col(i)[i] += capacitance_[i] * inv_dt;
  }
  for (const Coupling& c : couplings_) {
    col(c.a)[c.a] += c.g;
    col(c.b)[c.b] += c.g;
    col(c.b)[c.a] += -c.g;
    col(c.a)[c.b] += -c.g;
  }
  // Fluid elimination.  Per channel row the march is an affine recursion in
  // the wall temperatures (see march_fluid):
  //   q_c    = (g_dn T_dn,c + g_up T_up,c - g_sum T_in,c) / denom
  //   T_f,c  = s2 T_in,c + d2 T_dn,c + u2 T_up,c
  //   T_in,c+1 = s T_in,c + d T_dn,c + u T_up,c
  // so each cell's fluid temperature is a closed-form linear combination of
  // the inlet and the upstream wall temperatures, and the convective term
  // g_w (T_wall - T_f) becomes ordinary matrix couplings plus an inlet
  // constant — all within the band, since upstream cells of the same row
  // are at most (cols-1)*layers node indices away.  Stagnant coolant is
  // the local wall average (s = s2 = d = u = 0): no inlet term, no upstream
  // coupling.
  scratch.resize(4 * cols);
  for (std::size_t k = 0; k < stack_.cavity_count(); ++k) {
    const double w_cavity =
        params_.coolant.volumetric_heat_capacity() * cavity_flows_[k].m3_per_s();
    const double w_row = w_cavity / static_cast<double>(grid_.rows());
    const bool has_below = k >= 1;
    const bool has_above = k < layer_count_;
    const double g_dn = has_below ? g_fluid_dn_ : 0.0;
    const double g_up = has_above ? g_fluid_up_ : 0.0;
    const double g_sum = g_dn + g_up;
    double s = 0.0, d = 0.0, u = 0.0, s2 = 0.0;
    double d2 = g_dn / g_sum;
    double u2 = g_up / g_sum;
    if (w_row > 1e-12) {  // march_fluid's flowing test
      const double denom = 1.0 + g_sum / (2.0 * w_row);
      s = 1.0 - g_sum / (w_row * denom);
      d = g_dn / (w_row * denom);
      u = g_up / (w_row * denom);
      s2 = 1.0 - g_sum / (2.0 * w_row * denom);
      d2 = g_dn / (2.0 * w_row * denom);
      u2 = g_up / (2.0 * w_row * denom);
    }
    // A wall m + 1 cells upstream enters T_in,c with coefficient d s^m (a
    // dn wall) or u s^m (an up wall), accumulated as ((d s) s)..., and
    // reaches each wall of cell c scaled by -g_w s2.  The products are the
    // same for every channel row and every upstream cell, so they are
    // tabulated once per cavity: t_xy[m] couples an x wall to the y wall
    // m + 1 cells upstream.  Zero coefficients add nothing (the march
    // skipped them), and a chain that reaches zero stays there, so each
    // table ends at its chain's first zero.
    double* const t_dd = scratch.data();
    double* const t_ud = t_dd + cols;
    double* const t_du = t_ud + cols;
    double* const t_uu = t_du + cols;
    const double g_s2_dn = -g_dn * s2;
    const double g_s2_up = -g_up * s2;
    std::size_t len_d = 0;  // entries in t_dd and t_ud
    for (double coef = d; len_d + 1 < cols && coef != 0.0; coef *= s, ++len_d) {
      t_dd[len_d] = g_s2_dn * coef;
      t_ud[len_d] = g_s2_up * coef;
    }
    std::size_t len_u = 0;  // entries in t_du and t_uu
    for (double coef = u; len_u + 1 < cols && coef != 0.0; coef *= s, ++len_u) {
      t_du[len_u] = g_s2_dn * coef;
      t_uu[len_u] = g_s2_up * coef;
    }

    // March position i's walls are nodes up(i) - 1 (dn) and up(i) (up).
    // On the top cavity up(i) names no node: it only locates the dn wall.
    const bool reverse = params_.alternate_flow_direction && (k % 2 == 1);
    const auto layers = static_cast<std::ptrdiff_t>(layer_count_);
    const std::ptrdiff_t step = reverse ? -layers : layers;
    for (std::size_t r = 0; r < grid_.rows(); ++r) {
      const auto first = static_cast<std::ptrdiff_t>(
          node(k, grid_.index(r, reverse ? cols - 1 : 0)));
      const auto up = [&](std::size_t i) {
        return static_cast<std::size_t>(first + static_cast<std::ptrdiff_t>(i) * step);
      };
      // Each cell's walls: the g_w T_wall term, -g_w T_f,c through the
      // cell's own walls, and the inlet constant.
      double alpha = 1.0;  // T_in coefficient on the inlet temperature
      for (std::size_t i = 0; i < cols; ++i) {
        for (int face = 0; face < 2; ++face) {
          const bool is_dn = face == 0;
          if (is_dn ? !has_below : !has_above) continue;
          const double g_w = is_dn ? g_dn : g_up;
          const std::size_t wall = is_dn ? up(i) - 1 : up(i);
          col(wall)[wall] += g_w;
          if (has_below) col(up(i) - 1)[wall] += -g_w * d2;
          if (has_above) col(up(i))[wall] += -g_w * u2;
          inlet_coef[wall] = madd(g_w * s2, alpha, inlet_coef[wall]);
        }
        alpha *= s;  // advance the T_in recursion past this cell
      }
      // -g_w T_f,c through the upstream walls, one band column at a time:
      // upstream wall outer, downstream cells inner, so the writes run
      // down a column.  Each entry gets exactly one such term from this
      // cavity, so the visiting order changes no sum.
      for (std::size_t j = 0; j + 1 < cols; ++j) {
        const std::size_t n_down = cols - 1 - j;
        if (has_below) {  // the dn wall of cell j
          double* const a = col(up(j) - 1);
          const std::size_t len = std::min(n_down, len_d);
          for (std::size_t mm = 0; mm < len; ++mm) {
            const std::size_t w = up(j + 1 + mm);
            a[w - 1] += t_dd[mm];
            if (has_above) a[w] += t_ud[mm];
          }
        }
        if (has_above) {  // the up wall of cell j
          double* const a = col(up(j));
          const std::size_t len = std::min(n_down, len_u);
          for (std::size_t mm = 0; mm < len; ++mm) {
            const std::size_t w = up(j + 1 + mm);
            if (has_below) a[w - 1] += t_du[mm];
            a[w] += t_uu[mm];
          }
        }
      }
    }
  }
}

}  // namespace liquid3d
