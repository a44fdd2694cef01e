// factorization_cache.hpp — small LRU cache of assembled solver systems
// keyed by inverse time step.
//
// A thermal network's system matrix depends only on the topology (fixed for
// a model's lifetime) and on 1/dt, so every distinct step size seen by
// transient stepping, steady solves (1/dt = 0, or the pseudo-step), and
// characterization maps to exactly one assembled system.  The simulator
// alternates between a handful of step sizes, so a small LRU keyed by 1/dt
// makes every lookup after the first a pure hit — no re-assembly, no
// re-factorization, no allocation.
//
// Keys match under a relative tolerance rather than bit equality: step
// sizes arrive through arithmetic like `dt / substeps`, and the seed's
// exact `transient_dt_ == dt_s` comparison silently re-factorized on
// last-ulp differences.  A key of 0 (the steady operator) matches only 0.
//
// The cache is generic over the cached system type; the iterative backend
// stores PcgSolver instances (CSR operator + preconditioner) in it.  The
// direct backend keeps one exactly keyed LU slot per model instead (see
// ThermalModel3D::share_factors_with).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/error.hpp"

namespace liquid3d {

template <typename SystemT>
class DtKeyedLruCache {
 public:
  explicit DtKeyedLruCache(std::size_t capacity = 4) : capacity_(capacity) {
    LIQUID3D_REQUIRE(capacity >= 1, "cache needs at least one slot");
    entries_.reserve(capacity);
  }

  /// True when the two keys address the same system (relative tolerance
  /// 1e-9, far below any physically meaningful dt change).
  [[nodiscard]] static bool keys_match(double key_a, double key_b) {
    return std::abs(key_a - key_b) <=
           1e-9 * std::max(std::abs(key_a), std::abs(key_b));
  }

  /// Cached system for `key`, or nullptr on miss.  A hit refreshes the
  /// entry's recency.  Never allocates.
  [[nodiscard]] SystemT* find(double key) {
    for (Entry& e : entries_) {
      if (keys_match(e.key, key)) {
        e.stamp = ++clock_;
        ++hits_;
        return e.system.get();
      }
    }
    ++misses_;
    return nullptr;
  }

  /// Insert a system under `key`, evicting the least recently used entry
  /// when at capacity.  Returns the cached system.
  SystemT& insert(double key, std::unique_ptr<SystemT> system) {
    LIQUID3D_REQUIRE(system != nullptr, "cannot cache a null system");
    for (Entry& e : entries_) {
      if (keys_match(e.key, key)) {
        e.stamp = ++clock_;
        e.system = std::move(system);
        return *e.system;
      }
    }
    if (entries_.size() < capacity_) {
      entries_.push_back({key, ++clock_, std::move(system)});
      return *entries_.back().system;
    }
    std::size_t lru = 0;
    for (std::size_t i = 1; i < entries_.size(); ++i) {
      if (entries_[i].stamp < entries_[lru].stamp) lru = i;
    }
    entries_[lru] = {key, ++clock_, std::move(system)};
    return *entries_[lru].system;
  }

  void clear() { entries_.clear(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

 private:
  struct Entry {
    double key;
    std::uint64_t stamp;
    std::unique_ptr<SystemT> system;
  };

  std::size_t capacity_;
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::vector<Entry> entries_;
};

}  // namespace liquid3d
