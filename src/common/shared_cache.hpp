// shared_cache.hpp — a string-keyed cache whose values are built once and
// shared.
//
// Each entry holds a shared_future, so the first requester of a key can
// publish "build in progress" and release the lock before doing the
// expensive work.  One mutex guards the map and is held only for the map
// operation; the build runs outside it.  Same-key requesters block on the
// future and receive the same pointer, other keys proceed, and a failed
// build un-publishes its entry before its waiters see the exception, so the
// next requester retries instead of inheriting a poisoned future.
//
// With a capacity, every lookup trims the cache back to it by evicting
// least-recently-used entries that have settled, never the requested key:
// an in-flight build's waiters hold its future, and a holder of an evicted
// value keeps it alive through its shared_ptr.  An entry refused eviction
// because it was in flight is trimmed on a later lookup.
#pragma once

#include <chrono>
#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace liquid3d {

template <class V>
class SharedCache {
 public:
  using Ptr = std::shared_ptr<V>;

  /// `capacity` 0 means unbounded.  `evictions`, when given, counts every
  /// evicted entry and must outlive the cache.
  explicit SharedCache(std::size_t capacity = 0, obs::Counter* evictions = nullptr)
      : capacity_(capacity), evictions_(evictions) {}

  SharedCache(const SharedCache&) = delete;
  SharedCache& operator=(const SharedCache&) = delete;

  /// The value cached under `key`; on a miss, build() -> Ptr runs on this
  /// thread outside the lock.  Rethrows a failed build's exception (to the
  /// builder and to every requester already waiting on it).
  template <class Build>
  Ptr get(const std::string& key, Build&& build) {
    std::unique_lock<std::mutex> lock(mu_);
    if (const auto hit = index_.find(key); hit != index_.end()) {
      lru_.splice(lru_.begin(), lru_, hit->second);
      const std::shared_future<Ptr> future = hit->second->future;
      trim(key);
      lock.unlock();
      return future.get();
    }
    std::promise<Ptr> promise;
    lru_.push_front(Entry{key, promise.get_future().share()});
    const std::shared_future<Ptr> future = lru_.front().future;
    index_.emplace(lru_.front().key, lru_.begin());
    trim(key);
    lock.unlock();
    try {
      promise.set_value(build());
    } catch (...) {
      erase(key);
      promise.set_exception(std::current_exception());
      throw;
    }
    return future.get();
  }

  /// Entries, including builds still in flight.
  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return index_.size();
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    index_.clear();
    lru_.clear();
  }

 private:
  struct Entry {
    std::string key;
    std::shared_future<Ptr> future;
  };
  using Lru = std::list<Entry>;  ///< most recently used first

  static bool settled(const std::shared_future<Ptr>& f) {
    return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  }

  /// Caller holds mu_.
  void trim(const std::string& requested) {
    if (capacity_ == 0) return;
    for (auto it = lru_.end(); index_.size() > capacity_ && it != lru_.begin();) {
      --it;
      if (it->key == requested || !settled(it->future)) continue;
      index_.erase(it->key);
      it = lru_.erase(it);
      if (evictions_ != nullptr) evictions_->add();
    }
  }

  void erase(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = index_.find(key); it != index_.end()) {
      const typename Lru::iterator node = it->second;
      index_.erase(it);
      lru_.erase(node);
    }
  }

  const std::size_t capacity_;
  obs::Counter* const evictions_;
  mutable std::mutex mu_;
  Lru lru_;
  /// Keys view the strings their list nodes own.
  std::map<std::string_view, typename Lru::iterator, std::less<>> index_;
};

}  // namespace liquid3d
