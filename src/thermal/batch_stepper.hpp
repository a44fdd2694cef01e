// batch_stepper.hpp — lockstep transient stepping of several independent
// ThermalModel3D instances, sharing ONE banded Cholesky factorization where
// the models' system matrices coincide.
//
// Air-cooled models that share a stack geometry and a step size share a
// system matrix: their backward-Euler matrix C/dt + G depends only on the
// conduction topology and 1/dt, never on the runtime inputs (power map,
// package temperatures).  Advancing N such models together therefore needs
// one factor stream per step instead of N — the models' RHS vectors are
// packed node-major interleaved and routed through the multi-RHS
// BandedSpdMatrix::solve(span, nrhs), whose per-system arithmetic
// replicates the single-RHS kernel exactly.
//
// Liquid models on the direct backend solve the fluid-eliminated operator
// C/dt + G_elim(flow), whose coefficients carry each model's own flow
// vector, so each steps through its own LU slot — or through a linked
// groupmate's at an equal flow vector (ThermalModel3D::share_factors_with,
// which BatchRunner sets up).  Models resolved to the PCG backend
// (solver/backend.hpp) have no factorization to share.  Both kinds step
// serially inside step().
//
// Bit-identity contract: step(models, dt) leaves every model in exactly the
// state models[i]->step(dt) would have.  Batches are always backend- and
// cooling-homogeneous: the topology fingerprint mixes the resolved backend
// and the stack geometry in.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "thermal/model3d.hpp"

namespace liquid3d {

class BatchThermalStepper {
 public:
  /// Advance every model by one backward-Euler step of `dt_s` seconds; an
  /// air group shares models[0]'s cached factorization.  All models must
  /// have equal `topology_fingerprint()` (same stack geometry and thermal
  /// parameters — enforced); inputs (power, flow, temperatures) may differ
  /// freely.
  void step(std::span<ThermalModel3D* const> models, double dt_s);

  /// Shared multi-RHS solves issued so far (one per air-group step; a
  /// serial run would have issued one per model).
  [[nodiscard]] std::uint64_t shared_solves() const { return shared_solves_; }
  /// Single-model RHS columns routed through those solves.
  [[nodiscard]] std::uint64_t solved_columns() const { return solved_columns_; }

 private:
  std::vector<double> packed_;  ///< node-major interleaved RHS block
  std::uint64_t shared_solves_ = 0;
  std::uint64_t solved_columns_ = 0;
};

}  // namespace liquid3d
