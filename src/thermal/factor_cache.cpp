#include "thermal/factor_cache.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace liquid3d {

FactorCache::FactorCache(std::size_t capacity, std::size_t kept)
    : capacity_(capacity), kept_(kept) {
  LIQUID3D_REQUIRE(kept >= 1 && kept <= capacity,
                   "a factor cache keeps 1 to capacity factors");
}

LuSlot* FactorCache::find(std::uint64_t fingerprint, double inv_dt,
                          const std::vector<VolumetricFlow>& flows) {
  static obs::Counter& hits =
      obs::Registry::global().counter("liquid3d_solver_factor_cache_hits_total");
  static obs::Counter& misses =
      obs::Registry::global().counter("liquid3d_solver_factor_cache_misses_total");
  for (Entry& e : slots_) {
    if (e.slot.holds(fingerprint, inv_dt, flows)) {
      e.last_use = ++clock_;
      hits.add();
      return &e.slot;
    }
  }
  misses.add();
  return nullptr;
}

LuSlot& FactorCache::evict() {
  // Allocated at the first miss: a worker that runs no session (a steady
  // service's queue) allocates nothing.
  if (slots_.empty()) slots_.resize(capacity_);
  // Ranked: an empty slot while fewer than kept_ bands exist, a band idle
  // this round, an empty slot, a band in use this round; least recently
  // used first within each.
  const auto bands = static_cast<std::size_t>(std::count_if(
      slots_.begin(), slots_.end(), [](const Entry& e) { return e.slot.lu != nullptr; }));
  const auto rank = [&](const Entry& e) {
    const int kind = e.slot.lu == nullptr ? (bands < kept_ ? 0 : 2)
                     : e.last_use > round_start_ ? 3 : 1;
    return std::pair(kind, e.last_use);
  };
  Entry& victim = *std::min_element(
      slots_.begin(), slots_.end(),
      [&rank](const Entry& a, const Entry& b) { return rank(a) < rank(b); });
  victim.last_use = ++clock_;
  return victim.slot;
}

}  // namespace liquid3d
