// ThreadPool (common/thread_pool.hpp): result delivery, exception
// propagation, parallel_for coverage, and the parallel characterization
// samplers producing the same grid as a serial sweep, bit for bit.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "control/characterize.hpp"
#include "coolant/microchannel.hpp"
#include "coolant/pump.hpp"
#include "coolant/valve_network.hpp"
#include "geom/stack.hpp"

namespace liquid3d {
namespace {

TEST(ThreadPool, SubmitDeliversResults) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  auto f1 = pool.submit([] { return 6 * 7; });
  auto f2 = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 257;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(0, kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForRethrowsFirstExceptionAmongConcurrentFailures) {
  // Several indices fail at once; parallel_for must still run EVERY index
  // (fn is borrowed by reference — early return would leave workers calling
  // a destroyed callable), then rethrow the lowest-index failure: futures
  // drain in submission order, so "first" is deterministic, not a race.
  ThreadPool pool(4);
  constexpr std::size_t kN = 64;
  std::vector<std::atomic<int>> hits(kN);
  try {
    pool.parallel_for(0, kN, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
      if (i % 5 == 2) {  // indices 2, 7, 12, … all throw
        throw std::runtime_error("task " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 2");
  }
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }

  // The pool outlives the failure: same pool, fresh parallel_for, clean run.
  std::atomic<int> after{0};
  pool.parallel_for(0, kN, [&](std::size_t) {
    after.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(after.load(), static_cast<int>(kN));
}

TEST(ThreadPool, ManyTasksDrainAcrossWorkers) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  std::vector<std::future<void>> futs;
  futs.reserve(200);
  for (long i = 1; i <= 200; ++i) {
    futs.push_back(pool.submit([&sum, i] { sum.fetch_add(i); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(sum.load(), 200L * 201L / 2L);
}

TEST(ParallelCharacterization, GridMatchesSerialSweep) {
  ThermalModelParams p;
  p.grid_rows = 6;
  p.grid_cols = 7;
  const Stack3D stack = make_2layer_system();
  auto factory = [&]() {
    return std::make_unique<CharacterizationHarness>(
        stack, p, PowerModelParams{}, PumpModel::laing_ddc(),
        FlowDeliveryMode::kPressureLimited);
  };

  const std::size_t settings = factory()->setting_count();
  constexpr std::size_t kPoints = 5;
  const auto serial = sample_tmax_grid(factory, settings, kPoints, 1);
  ASSERT_EQ(serial.size(), settings);
  for (const auto& row : serial) ASSERT_EQ(row.size(), kPoints);
  // Every setting row starts from the ambient field, so which worker sweeps
  // it cannot change a bit.
  for (const std::size_t threads : {2u, 3u, 5u}) {
    EXPECT_EQ(sample_tmax_grid(factory, settings, kPoints, threads), serial)
        << threads << " threads";
  }

  // And the LUT built from those samples must be internally consistent.
  const FlowLut lut = characterize_flow_lut(factory, 80.0, kPoints, 2);
  EXPECT_EQ(lut.setting_count(), settings);
}

TEST(ParallelCharacterization, CavitySkewGridMatchesSerialSweep) {
  ThermalModelParams p;
  p.grid_rows = 6;
  p.grid_cols = 7;
  const Stack3D stack = make_2layer_system();
  auto factory = [&]() {
    return std::make_unique<CharacterizationHarness>(
        stack, p, PowerModelParams{}, PumpModel::laing_ddc(),
        FlowDeliveryMode::kPressureLimited);
  };
  const MicrochannelModel channels(stack.cavity(), p.coolant, p.channel_params);
  const ValveNetwork net(
      FlowDelivery(PumpModel::laing_ddc(), FlowDeliveryMode::kPressureLimited,
                   channels, stack.width(), stack.cavity_count()),
      ValveNetworkParams{});
  const CavitySkewGrid serial = sample_cavity_skew_grid(factory, net, 2, 0.6, 3, 1);
  const CavitySkewGrid parallel = sample_cavity_skew_grid(factory, net, 2, 0.6, 3, 2);
  EXPECT_EQ(parallel.openings, serial.openings);
  EXPECT_EQ(parallel.tmax, serial.tmax);
}

}  // namespace
}  // namespace liquid3d
