// thermal_test_access.hpp — white-box access to ThermalModel3D's fluid
// elimination for tests: the assembled operator and the LU slot, which are
// private to the model.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "thermal/model3d.hpp"

namespace liquid3d {

struct ThermalModel3DTestAccess {
  /// C inv_dt + G_elim at the model's current flow vector.
  static void build_eliminated_system(const ThermalModel3D& m, double inv_dt,
                                      BandedLuMatrix& a,
                                      std::vector<double>& inlet_coef) {
    m.build_eliminated_system(inv_dt, a, inlet_coef);
  }
  /// The model's own LU slot: nullptr until its first factorization.
  static const BandedLuMatrix* eliminated_slot(const ThermalModel3D& m) {
    return m.elim_.lu.get();
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
