// factor_cache.hpp — a few factorized direct operators, kept by key, that
// thermal models solve through instead of refactorizing.
//
// A ThermalModel3D solve goes through the banded-LU factor of C inv_dt + G
// (air) or of the fluid-eliminated C inv_dt + G_elim(flows) (liquid), fixed
// bit for bit by its key: the topology fingerprint, 1/dt and the per-cavity
// flow vector (empty for air).  A model lent a FactorCache
// (ThermalModel3D::use_factor_cache) looks there before it factorizes, and
// on a miss refactorizes into a slot the cache gives up; a model with none
// keeps a private slot.
//
// Lookups come in rounds (BatchRunner: a slice's warm starts, each lockstep
// substep).  A miss fills an empty slot while fewer than `kept` bands
// exist, then reuses the least recently used band the round has not
// touched, and gives up a band the round has used only when nothing else
// is left, so a cache holds at most max(kept, the most keys one round has
// needed) bands of n (2b + 1) doubles.  A serve queue worker keeps two, the
// steady and substep factors a paced what-if of the same cooling as the
// last one needs; a BatchRunner worker keeps one, since a grid runs
// scenario by scenario and seldom returns to an old key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.hpp"
#include "thermal/solver/banded_lu.hpp"

namespace liquid3d {

/// One factorized direct operator and its key.  The key is valid while
/// `lu` is factorized: assembly zeroes the band first, so a factorization
/// that threw leaves no stale key behind.
struct LuSlot {
  std::unique_ptr<BandedLuMatrix> lu;
  std::vector<double> inlet_coef;  ///< each node's coefficient on T_in (liquid)
  std::vector<double> scratch;     ///< build_eliminated_system's tables
  std::uint64_t fingerprint = 0;
  double inv_dt = 0.0;
  std::vector<VolumetricFlow> flows;

  /// Whether the slot holds the factor of this key.  Exact: every bit of
  /// 1/dt and of each cavity's flow enters the operator's coefficients.
  [[nodiscard]] bool holds(std::uint64_t fp, double key_inv_dt,
                           const std::vector<VolumetricFlow>& key_flows) const {
    return lu && lu->factorized() && fingerprint == fp && inv_dt == key_inv_dt &&
           flows == key_flows;
  }
};

class FactorCache {
 public:
  /// A cache of `capacity` (>= 1) slots, each empty until a miss fills it,
  /// that keeps `kept` (1 to capacity) factors from round to round.
  FactorCache(std::size_t capacity, std::size_t kept);

  FactorCache(const FactorCache&) = delete;
  FactorCache& operator=(const FactorCache&) = delete;

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// The slot that holds the key's factor, now the most recently used, or
  /// null.  Counts a hit or a miss.
  [[nodiscard]] LuSlot* find(std::uint64_t fingerprint, double inv_dt,
                             const std::vector<VolumetricFlow>& flows);
  /// Where a miss refactorizes, now the most recently used slot: an empty
  /// slot while fewer than `kept` bands exist, else the least recently
  /// used band this round has not touched, else an empty slot, else the
  /// least recently used band.  The caller rewrites its band and key.
  [[nodiscard]] LuSlot& evict();
  /// Start a round of lookups.
  void begin_round() { round_start_ = clock_; }

 private:
  struct Entry {
    LuSlot slot;
    std::uint64_t last_use = 0;
  };
  std::vector<Entry> slots_;
  std::size_t capacity_;
  std::size_t kept_;
  std::uint64_t clock_ = 0;
  std::uint64_t round_start_ = 0;
};

}  // namespace liquid3d
