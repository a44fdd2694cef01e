// SharedCache (common/shared_cache.hpp): same-key requesters share one
// build, distinct keys build independently outside the lock, a failed build
// leaves the cache clean and can be retried, and eviction is LRU over
// settled entries other than the requested key.  Runs under TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/shared_cache.hpp"
#include "sim/characterization_cache.hpp"

namespace liquid3d {
namespace {

using IntCache = SharedCache<const int>;

/// A build yielding `value` that counts its calls in `builds`.
auto counted(std::atomic<int>& builds, int value = 0) {
  return [&builds, value] {
    ++builds;
    return std::make_shared<const int>(value);
  };
}

std::shared_ptr<const int> failing_build() { throw ConfigError("rejected"); }

TEST(SharedCache, SameKeyConcurrentGetsShareOneBuild) {
  IntCache cache;
  std::atomic<int> builds{0};
  std::vector<std::shared_ptr<const int>> results(4);
  std::vector<std::thread> threads;
  for (std::shared_ptr<const int>& result : results) {
    threads.emplace_back([&] {
      result = cache.get("k", [&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return counted(builds)();
      });
    });
  }
  for (std::thread& t : threads) t.join();
  // Pointer equality proves the build ran once and everyone shared it.
  for (const auto& result : results) EXPECT_EQ(result.get(), results[0].get());
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SharedCache, DistinctKeysBuildIndependently) {
  IntCache cache;
  std::atomic<int> builds{0};
  // a's build finishes only once b's has started: builds run outside the lock.
  std::promise<void> b_started;
  std::shared_ptr<const int> wa;
  std::thread ta([&] {
    wa = cache.get("a", [&] {
      EXPECT_EQ(b_started.get_future().wait_for(std::chrono::seconds(10)),
                std::future_status::ready);
      return counted(builds)();
    });
  });
  const auto wb = cache.get("b", [&] {
    b_started.set_value();
    return counted(builds)();
  });
  ta.join();
  EXPECT_NE(wa.get(), wb.get());
  // Repeat lookups hit the existing entries.
  EXPECT_EQ(cache.get("a", counted(builds)).get(), wa.get());
  EXPECT_EQ(builds.load(), 2);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(SharedCache, RejectedRequestLeavesCacheClean) {
  IntCache cache;
  EXPECT_THROW((void)cache.get("k", failing_build), ConfigError);
  EXPECT_EQ(cache.size(), 0u);
  // A flow LUT for an air configuration is invalid; the characterization
  // cache must reject it without publishing any entry.
  CharacterizationCache characterizations;
  SimulationConfig air;
  air.cooling = CoolingMode::kAir;
  EXPECT_THROW((void)characterizations.flow_lut(air), ConfigError);
  EXPECT_EQ(characterizations.size(), 0u);
}

TEST(SharedCache, ClearEmptiesEveryEntry) {
  IntCache cache;
  std::atomic<int> builds{0};
  (void)cache.get("a", counted(builds));
  (void)cache.get("b", counted(builds));
  EXPECT_EQ(cache.size(), 2u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(SharedCache, EvictsLeastRecentlyUsedSettledEntriesOnly) {
  obs::Counter evictions;
  std::atomic<int> builds{0};
  IntCache cache(2, &evictions);
  // LRU order: touching a makes b the victim when c arrives.
  for (const char* key : {"a", "b", "a", "c", "a"}) (void)cache.get(key, counted(builds));
  EXPECT_EQ(builds.load(), 3);
  EXPECT_EQ(evictions.value(), 1u);
  (void)cache.get("b", counted(builds));  // evicted, so rebuilt; c goes
  EXPECT_EQ(builds.load(), 4);
  EXPECT_EQ(evictions.value(), 2u);

  // Neither an in-flight entry nor the requested key is evicted: at
  // capacity 1, looking up x while "slow" builds keeps both.
  IntCache small(1, &evictions);
  std::promise<void> started, release;
  std::thread slow([&] {
    (void)small.get("slow", [&] {
      started.set_value();
      release.get_future().wait();
      return counted(builds)();
    });
  });
  started.get_future().wait();
  (void)small.get("x", counted(builds));
  EXPECT_EQ(small.size(), 2u);
  EXPECT_EQ(evictions.value(), 2u);
  release.set_value();
  slow.join();
  (void)small.get("x", counted(builds));  // settled now: slow goes
  EXPECT_EQ(small.size(), 1u);
  EXPECT_EQ(evictions.value(), 3u);

  // A failed build can be retried.
  EXPECT_THROW((void)small.get("bad", failing_build), ConfigError);
  EXPECT_EQ(*small.get("bad", counted(builds, 6)), 6);
}

}  // namespace
}  // namespace liquid3d
