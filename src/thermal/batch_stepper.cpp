#include "thermal/batch_stepper.hpp"

#include "common/error.hpp"

namespace liquid3d {

void BatchThermalStepper::step(std::span<ThermalModel3D* const> models,
                               double dt_s) {
  LIQUID3D_REQUIRE(!models.empty(), "batch step needs at least one model");
  LIQUID3D_REQUIRE(dt_s > 0.0, "time step must be positive");
  ThermalModel3D& lead = *models.front();
  for (ThermalModel3D* m : models) {
    LIQUID3D_REQUIRE(m->topology_fingerprint() == lead.topology_fingerprint(),
                     "batched models must share stack geometry and thermal "
                     "parameters (topology fingerprints differ)");
  }
  // Only air groups on the direct backend share a factor: their C/dt + G
  // depends on the topology and dt alone.  A liquid model's eliminated
  // operator carries its own flow vector, so it steps through its own LU
  // slot (or a linked peer's, see ThermalModel3D::share_factors_with); a
  // PCG model has no factorization to share.  Both step serially — batch
  // == solo by construction.  Batches are backend-homogeneous (the
  // topology fingerprint mixes the resolved backend in) and cooling-
  // homogeneous (it mixes the stack geometry in).
  if (lead.backend_ != SolverBackend::kDirect || lead.stack_.has_cavities()) {
    for (ThermalModel3D* m : models) m->step(dt_s);
    return;
  }
  const BandedSpdMatrix& mat = lead.matrix_for_dt(dt_s);
  const double inv_dt = 1.0 / dt_s;
  const std::size_t n = lead.node_count_;
  const std::size_t nb = models.size();

  // Mirror of ThermalModel3D::advance's single air solve, vectorized over
  // models.  Interleaving is done as a tiled transpose: each model assembles
  // into its own contiguous rhs_ scratch, and tiles of kTile rows are
  // exchanged with the packed buffer so the strided accesses stay inside an
  // L1-resident window — a straight per-model strided pass would re-walk
  // the whole packed buffer once per model.
  constexpr std::size_t kTile = 64;
  packed_.resize(n * nb);
  for (ThermalModel3D* m : models) {
    m->temps_prev_.assign(m->temps_.begin(), m->temps_.end());
    m->assemble_transient_rhs(inv_dt, m->rhs_.data());
  }
  for (std::size_t i0 = 0; i0 < n; i0 += kTile) {
    const std::size_t i_end = std::min(n, i0 + kTile);
    for (std::size_t r = 0; r < nb; ++r) {
      const double* const src = models[r]->rhs_.data();
      double* const dst = packed_.data() + r;
      for (std::size_t i = i0; i < i_end; ++i) dst[i * nb] = src[i];
    }
  }
  mat.solve(std::span<double>(packed_.data(), n * nb), nb);
  ++shared_solves_;
  solved_columns_ += nb;
  for (std::size_t i0 = 0; i0 < n; i0 += kTile) {
    const std::size_t i_end = std::min(n, i0 + kTile);
    for (std::size_t r = 0; r < nb; ++r) {
      double* const dst = models[r]->temps_.data();
      const double* const src = packed_.data() + r;
      for (std::size_t i = i0; i < i_end; ++i) dst[i] = src[i * nb];
    }
  }
  for (ThermalModel3D* m : models) m->update_package_transient(dt_s);
}

}  // namespace liquid3d
