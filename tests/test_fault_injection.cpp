// Unit tests for the deterministic fault injector (common/fault_injection).
#include "common/fault_injection.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/error.hpp"

namespace liquid3d::fault_injection {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { disarm_all(); }
};

TEST_F(FaultInjectionTest, DisarmedNeverFailsAndIsCheap) {
  EXPECT_FALSE(armed());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(should_fail("worker.chunk"));
  }
  // Disarmed hits take the fast path and are not recorded.
  EXPECT_EQ(hits("worker.chunk"), 0u);
}

TEST_F(FaultInjectionTest, FailsEveryHitWhenArmedBare) {
  ScopedFaults faults("worker.chunk");
  EXPECT_TRUE(armed());
  EXPECT_TRUE(should_fail("worker.chunk"));
  EXPECT_TRUE(should_fail("worker.chunk"));
  EXPECT_FALSE(should_fail("journal.append"));  // other sites untouched
  EXPECT_EQ(hits("worker.chunk"), 2u);
  EXPECT_EQ(hits("journal.append"), 1u);
}

TEST_F(FaultInjectionTest, NthSkipsEarlierHits) {
  ScopedFaults faults("worker.chunk:nth=3");
  EXPECT_FALSE(should_fail("worker.chunk"));
  EXPECT_FALSE(should_fail("worker.chunk"));
  EXPECT_TRUE(should_fail("worker.chunk"));
  EXPECT_TRUE(should_fail("worker.chunk"));  // unlimited count from nth on
}

TEST_F(FaultInjectionTest, CountBoundsTheFailureWindow) {
  ScopedFaults faults("worker.chunk:nth=2:count=2");
  EXPECT_FALSE(should_fail("worker.chunk"));
  EXPECT_TRUE(should_fail("worker.chunk"));
  EXPECT_TRUE(should_fail("worker.chunk"));
  EXPECT_FALSE(should_fail("worker.chunk"));
  EXPECT_FALSE(should_fail("worker.chunk"));
}

TEST_F(FaultInjectionTest, KeyedSpecMatchesOnlyItsKey) {
  ScopedFaults faults("worker.cell:key=7");
  EXPECT_FALSE(should_fail("worker.cell", 3));
  EXPECT_TRUE(should_fail("worker.cell", 7));
  EXPECT_FALSE(should_fail("worker.cell", 8));
  EXPECT_TRUE(should_fail("worker.cell", 7));
}

TEST_F(FaultInjectionTest, SemicolonArmsMultipleSpecs) {
  ScopedFaults faults("worker.cell:key=1;worker.cell:key=2");
  EXPECT_TRUE(should_fail("worker.cell", 1));
  EXPECT_TRUE(should_fail("worker.cell", 2));
  EXPECT_FALSE(should_fail("worker.cell", 3));
}

TEST_F(FaultInjectionTest, ProbabilisticScheduleIsSeedDeterministic) {
  std::vector<bool> first;
  {
    ScopedFaults faults("worker.chunk:p=0.5:seed=42");
    for (int i = 0; i < 64; ++i) first.push_back(should_fail("worker.chunk"));
  }
  std::vector<bool> second;
  {
    ScopedFaults faults("worker.chunk:p=0.5:seed=42");
    for (int i = 0; i < 64; ++i) second.push_back(should_fail("worker.chunk"));
  }
  EXPECT_EQ(first, second);
  // The coin actually lands on both sides somewhere in 64 flips.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);

  std::vector<bool> other_seed;
  {
    ScopedFaults faults("worker.chunk:p=0.5:seed=43");
    for (int i = 0; i < 64; ++i) {
      other_seed.push_back(should_fail("worker.chunk"));
    }
  }
  EXPECT_NE(first, other_seed);
}

TEST_F(FaultInjectionTest, MalformedSpecsThrowConfigError) {
  EXPECT_THROW(arm(":nth=1"), ConfigError);  // empty site inside a spec
  EXPECT_THROW(arm("worker.chunk:bogus=1"), ConfigError);
  EXPECT_THROW(arm("worker.chunk:nth=0"), ConfigError);
  EXPECT_THROW(arm("worker.chunk:p=1.5"), ConfigError);
  EXPECT_THROW(arm("worker.chunk:kill=1"), ConfigError);
  EXPECT_FALSE(armed());  // nothing half-armed
}

TEST_F(FaultInjectionTest, DisarmResetsCountersAndSpecs) {
  arm("worker.chunk:nth=2");
  EXPECT_FALSE(should_fail("worker.chunk"));
  disarm_all();
  EXPECT_FALSE(armed());
  EXPECT_EQ(hits("worker.chunk"), 0u);
  // Re-arming starts a fresh schedule: the first hit is hit #1 again.
  ScopedFaults faults("worker.chunk:nth=2");
  EXPECT_FALSE(should_fail("worker.chunk"));
  EXPECT_TRUE(should_fail("worker.chunk"));
}

TEST_F(FaultInjectionTest, ConcurrentHitsAreCountedExactly) {
  ScopedFaults faults("worker.cell:key=999");  // armed, but no hit matches
  constexpr int kThreads = 8;
  constexpr int kHitsPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kHitsPerThread; ++i) {
        (void)should_fail("worker.cell", 1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(hits("worker.cell"),
            static_cast<std::uint64_t>(kThreads) * kHitsPerThread);
}

}  // namespace
}  // namespace liquid3d::fault_injection
