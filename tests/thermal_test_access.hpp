// thermal_test_access.hpp — white-box access to ThermalModel3D for tests and
// benchmarks: the fluid-eliminated operator and the LU slot, which are
// private to the model, the reference assembly the direct-write one must
// reproduce bit for bit, the eliminated step rebuilt from it for a dense
// oracle, and the silicon-only solve the eliminated step is a fixed point
// of.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/linalg.hpp"
#include "common/madd.hpp"
#include "obs/metrics.hpp"
#include "reference_dense_lu.hpp"
#include "thermal/model3d.hpp"

namespace liquid3d {

struct ThermalModel3DTestAccess {
  /// C inv_dt + G_elim at the model's current flow vector.
  static void build_eliminated_system(const ThermalModel3D& m, double inv_dt,
                                      BandedLuMatrix& a,
                                      std::vector<double>& inlet_coef,
                                      std::vector<double>& scratch) {
    m.build_eliminated_system(inv_dt, a, inlet_coef, scratch);
  }
  static void build_eliminated_system(const ThermalModel3D& m, double inv_dt,
                                      BandedLuMatrix& a,
                                      std::vector<double>& inlet_coef) {
    std::vector<double> scratch;
    build_eliminated_system(m, inv_dt, a, inlet_coef, scratch);
  }
  /// The fluid-eliminated assembly as it was before it wrote the band
  /// directly: every entry through BandedLuMatrix::add, the upstream
  /// coefficients kept per cell and rescaled cell by cell.  Kept verbatim
  /// (modulo member access) as the oracle for build_eliminated_system and
  /// as the micro-benchmark baseline; not part of the library.
  static void reference_build_eliminated_system(const ThermalModel3D& md,
                                                double inv_dt, BandedLuMatrix& m,
                                                std::vector<double>& inlet_coef) {
    m.set_zero();
    inlet_coef.assign(md.node_count_, 0.0);
    for (std::size_t i = 0; i < md.node_count_; ++i) {
      m.add(i, i, md.capacitance_[i] * inv_dt);
    }
    for (const ThermalModel3D::Coupling& c : md.couplings_) {
      m.add(c.a, c.a, c.g);
      m.add(c.b, c.b, c.g);
      m.add(c.a, c.b, -c.g);
      m.add(c.b, c.a, -c.g);
    }
    std::vector<double> coef_dn(md.cell_count_, 0.0);
    std::vector<double> coef_up(md.cell_count_, 0.0);
    for (std::size_t k = 0; k < md.stack_.cavity_count(); ++k) {
      const double w_cavity = md.params_.coolant.volumetric_heat_capacity() *
                              md.cavity_flows_[k].m3_per_s();
      const double w_row = w_cavity / static_cast<double>(md.grid_.rows());
      const bool has_below = k >= 1;
      const bool has_above = k < md.layer_count_;
      const double g_dn = has_below ? md.g_fluid_dn_ : 0.0;
      const double g_up = has_above ? md.g_fluid_up_ : 0.0;
      const double g_sum = g_dn + g_up;
      double s = 0.0, d = 0.0, u = 0.0, s2 = 0.0;
      double d2 = g_dn / g_sum;
      double u2 = g_up / g_sum;
      if (w_row > 1e-12) {
        const double denom = 1.0 + g_sum / (2.0 * w_row);
        s = 1.0 - g_sum / (w_row * denom);
        d = g_dn / (w_row * denom);
        u = g_up / (w_row * denom);
        s2 = 1.0 - g_sum / (2.0 * w_row * denom);
        d2 = g_dn / (2.0 * w_row * denom);
        u2 = g_up / (2.0 * w_row * denom);
      }
      const bool reverse = md.params_.alternate_flow_direction && (k % 2 == 1);
      for (std::size_t r = 0; r < md.grid_.rows(); ++r) {
        double alpha = 1.0;
        std::vector<std::size_t> upstream;
        upstream.reserve(md.grid_.cols());
        for (std::size_t ci = 0; ci < md.grid_.cols(); ++ci) {
          const std::size_t c = reverse ? md.grid_.cols() - 1 - ci : ci;
          const std::size_t cell = md.grid_.index(r, c);
          for (int face = 0; face < 2; ++face) {
            const bool is_dn = face == 0;
            if (is_dn ? !has_below : !has_above) continue;
            const double g_w = is_dn ? g_dn : g_up;
            const std::size_t wall = is_dn ? md.node(k - 1, cell) : md.node(k, cell);
            m.add(wall, wall, g_w);
            if (has_below) m.add(wall, md.node(k - 1, cell), -g_w * d2);
            if (has_above) m.add(wall, md.node(k, cell), -g_w * u2);
            for (const std::size_t cu : upstream) {
              if (has_below && coef_dn[cu] != 0.0) {
                m.add(wall, md.node(k - 1, cu), -g_w * s2 * coef_dn[cu]);
              }
              if (has_above && coef_up[cu] != 0.0) {
                m.add(wall, md.node(k, cu), -g_w * s2 * coef_up[cu]);
              }
            }
            inlet_coef[wall] = madd(g_w * s2, alpha, inlet_coef[wall]);
          }
          alpha *= s;
          for (const std::size_t cu : upstream) {
            coef_dn[cu] *= s;
            coef_up[cu] *= s;
          }
          coef_dn[cell] = d;
          coef_up[cell] = u;
          upstream.push_back(cell);
        }
        for (const std::size_t cu : upstream) {
          coef_dn[cu] = 0.0;
          coef_up[cu] = 0.0;
        }
      }
    }
  }
  /// The fluid-eliminated operator C inv_dt + G_elim at the model's current
  /// flow vector, from the reference assembly, as a dense matrix; each
  /// node's coefficient on the inlet temperature goes to `inlet_coef`.
  static Matrix reference_eliminated_dense(const ThermalModel3D& m, double inv_dt,
                                           std::vector<double>& inlet_coef) {
    const std::size_t n = m.node_count_;
    const std::size_t bw = m.grid_.cols() * m.layer_count_;
    BandedLuMatrix band(n, bw, bw);
    reference_build_eliminated_system(m, inv_dt, band, inlet_coef);
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i >= bw ? i - bw : 0; j <= std::min(n - 1, i + bw); ++j) {
        a(i, j) = band.at(i, j);
      }
    }
    return a;
  }
  /// The eliminated step's right-hand side from the field `t_prev`:
  /// C inv_dt t_prev + P + inlet_coef T_in.
  static std::vector<double> eliminated_rhs(const ThermalModel3D& m, double inv_dt,
                                            const std::vector<double>& t_prev,
                                            const std::vector<double>& inlet_coef) {
    std::vector<double> rhs(m.node_count_);
    for (std::size_t i = 0; i < m.node_count_; ++i) {
      rhs[i] = m.capacitance_[i] * inv_dt * t_prev[i] + m.cell_power_[i] +
               inlet_coef[i] * m.inlet_temperature_;
    }
    return rhs;
  }
  /// Mean outlet temperature [°C] of `cavity`'s coolant over the silicon
  /// field `temps`, at the model's flow and inlet temperature.
  static double outlet_over(const ThermalModel3D& m, std::size_t cavity,
                            const std::vector<double>& temps) {
    std::vector<double> fluid(m.cell_count_);
    return m.march_fluid(cavity, temps.data(), m.inlet_temperature_, fluid.data())
        .outlet;
  }
  /// One silicon solve against a given coolant field — the body of the
  /// silicon<->fluid fixed point the model once iterated:
  /// (C inv_dt + G + D) T = C inv_dt t_prev + P + g_face T_fluid, solved
  /// densely by reference::DenseLu.  The fluid-eliminated step is a fixed
  /// point of it.
  static std::vector<double> silicon_solve_against_fluid(
      const ThermalModel3D& m, double inv_dt, const std::vector<double>& t_prev,
      const std::vector<std::vector<double>>& fluid) {
    Matrix a(m.node_count_, m.node_count_);
    std::vector<double> rhs(m.node_count_);
    for (std::size_t i = 0; i < m.node_count_; ++i) {
      a(i, i) += m.capacitance_[i] * inv_dt + m.ext_diag_[i];
      rhs[i] = m.capacitance_[i] * inv_dt * t_prev[i] + m.cell_power_[i];
    }
    for (const ThermalModel3D::Coupling& c : m.couplings_) {
      a(c.a, c.a) += c.g;
      a(c.b, c.b) += c.g;
      a(c.a, c.b) -= c.g;
      a(c.b, c.a) -= c.g;
    }
    for (std::size_t k = 0; k < fluid.size(); ++k) {
      for (std::size_t cell = 0; cell < m.cell_count_; ++cell) {
        if (k >= 1) rhs[m.node(k - 1, cell)] += m.g_fluid_dn_ * fluid[k][cell];
        if (k < m.layer_count_) rhs[m.node(k, cell)] += m.g_fluid_up_ * fluid[k][cell];
      }
    }
    return reference::DenseLu(std::move(a)).solve(rhs);
  }
  /// Per-node heat capacity [J/K]: the C of C/dt + G.
  static const std::vector<double>& capacitance(const ThermalModel3D& m) {
    return m.capacitance_;
  }
  /// Overwrite one node of the silicon field (e.g. to poison it).
  static void set_node_temperature(ThermalModel3D& m, std::size_t node, double v) {
    m.temps_.at(node) = v;
  }
  /// The model's own LU slot: nullptr until its first factorization.
  static const BandedLuMatrix* lu_slot(const ThermalModel3D& m) {
    return m.lu_slot_.lu.get();
  }
};

/// Direct-solver factorizations so far in this process, read from the
/// observability registry.  Tests take deltas under obs::ScopedEnabled.
inline std::uint64_t factorization_count() {
  return obs::Registry::global()
      .histogram("liquid3d_solver_factorize_seconds")
      .count();
}

}  // namespace liquid3d
