// bench_micro_solver — engineering micro-benchmarks (google-benchmark) for
// the thermal substrate: the banded LU and eliminated assembly of the
// direct path (blocked/direct-write vs the unblocked kernels and add()-based
// assembly they replaced), full transient/steady model operations up to
// the paper's 100 µm grid, a batched run of air sessions, and flow-LUT
// characterization.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "control/characterize.hpp"
#include "coolant/flow.hpp"
#include "coolant/pump.hpp"
#include "geom/stack.hpp"
#include "sim/batch_runner.hpp"
#include "thermal/model3d.hpp"
#include "thermal/solver/banded_lu.hpp"
#include "workload/benchmarks.hpp"
#include "../tests/reference_banded_lu.hpp"
#include "../tests/thermal_test_access.hpp"

namespace {

using namespace liquid3d;

// -- Banded LU (the direct path) ----------------------------------------------
//
// The operator is the real fluid-eliminated steady operator of the
// paper-grid Niagara stack at the middle pump setting: Args({1196, 52}) is
// the 2-layer stack, Args({2392, 104}) the 4-layer one.  The SeedBaseline
// twins run the unblocked kernels the blocked ones replaced
// (tests/reference_banded_lu.hpp) on the same matrix, bit-identical output.

ThermalModel3D make_liquid_model(std::size_t pairs, std::size_t rows, std::size_t cols) {
  ThermalModelParams p;
  p.grid_rows = rows;
  p.grid_cols = cols;
  ThermalModel3D m(make_niagara_stack(pairs, CoolingType::kLiquid), p);
  const MicrochannelModel ch(CavitySpec{}, CoolantProperties::water());
  const FlowDelivery d(PumpModel::laing_ddc(), FlowDeliveryMode::kPressureLimited, ch,
                       11.5e-3, 2 * pairs + 1);
  m.set_cavity_flow(d.per_cavity(2));
  return m;
}

BandedLuMatrix make_eliminated_operator(const benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto bw = static_cast<std::size_t>(state.range(1));
  const ThermalModel3D model = make_liquid_model(n / 1196, 23, 26);
  BandedLuMatrix a(n, bw, bw);
  std::vector<double> inlet;
  ThermalModel3DTestAccess::build_eliminated_system(model, 0.0, a, inlet);
  return a;
}

void BM_BandedLuFactorize(benchmark::State& state) {
  const BandedLuMatrix a = make_eliminated_operator(state);
  BandedLuMatrix m = a;
  for (auto _ : state) {
    state.PauseTiming();
    m = a;
    state.ResumeTiming();
    m.factorize();
    benchmark::DoNotOptimize(m.band().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_BandedLuFactorize)->Args({1196, 52})->Args({2392, 104});

void BM_BandedLuFactorizeSeedBaseline(benchmark::State& state) {
  const BandedLuMatrix a = make_eliminated_operator(state);
  const std::vector<double> band(a.band().begin(), a.band().end());
  std::vector<double> m = band;
  for (auto _ : state) {
    state.PauseTiming();
    m = band;
    state.ResumeTiming();
    reference::banded_lu_factorize(m, a.size(), a.lower_bandwidth(), a.upper_bandwidth());
    benchmark::DoNotOptimize(m.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_BandedLuFactorizeSeedBaseline)->Args({1196, 52})->Args({2392, 104});

void BM_BandedLuSolve(benchmark::State& state) {
  BandedLuMatrix m = make_eliminated_operator(state);
  m.factorize();
  const std::vector<double> rhs(m.size(), 1.0);
  std::vector<double> x(m.size());
  for (auto _ : state) {
    x = rhs;
    m.solve(x);
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_BandedLuSolve)->Args({1196, 52})->Args({2392, 104});

// k right-hand sides through one factor in one call, as a lockstep group
// of k models solves them (ThermalModel3D::step_lockstep); the
// `seconds_per_rhs` counter is the time per right-hand side, to set against
// BM_BandedLuSolve's per-call time from the same run.  /1 is the
// single-RHS path itself.
void BM_BandedLuSolveMany(benchmark::State& state) {
  BandedLuMatrix m = make_eliminated_operator(state);
  m.factorize();
  const auto k = static_cast<std::size_t>(state.range(2));
  std::vector<double> rhs(m.size() * k);
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    rhs[i] = 1.0 + 1e-3 * static_cast<double>(i % 97);
  }
  std::vector<double> x(rhs.size());
  for (auto _ : state) {
    x = rhs;
    m.solve(x);
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  state.counters["seconds_per_rhs"] = benchmark::Counter(
      static_cast<double>(k),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_BandedLuSolveMany)
    ->Args({1196, 52, 1})
    ->Args({1196, 52, 4})
    ->Args({2392, 104, 1})
    ->Args({2392, 104, 4});

void BM_BandedLuSolveSeedBaseline(benchmark::State& state) {
  const BandedLuMatrix a = make_eliminated_operator(state);
  std::vector<double> band(a.band().begin(), a.band().end());
  reference::banded_lu_factorize(band, a.size(), a.lower_bandwidth(), a.upper_bandwidth());
  const std::vector<double> rhs(a.size(), 1.0);
  std::vector<double> x(a.size());
  for (auto _ : state) {
    x = rhs;
    reference::banded_lu_solve(band, a.size(), a.lower_bandwidth(), a.upper_bandwidth(), x);
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_BandedLuSolveSeedBaseline)->Args({1196, 52})->Args({2392, 104});

// Fluid-eliminated assembly (C/dt + G_elim at the 50 ms step) of the
// 2-layer stack on a rows x cols grid: the direct band writes against the
// per-entry add() assembly they replaced.
void BM_EliminatedAssemble(benchmark::State& state) {
  const ThermalModel3D model = make_liquid_model(
      1, static_cast<std::size_t>(state.range(0)), static_cast<std::size_t>(state.range(1)));
  const std::size_t bw = model.grid().cols() * model.layer_count();
  BandedLuMatrix a(model.node_count(), bw, bw);
  std::vector<double> inlet;
  std::vector<double> scratch;
  for (auto _ : state) {
    ThermalModel3DTestAccess::build_eliminated_system(model, 20.0, a, inlet, scratch);
    benchmark::DoNotOptimize(a.band().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_EliminatedAssemble)->Args({23, 26});

void BM_EliminatedAssembleSeedBaseline(benchmark::State& state) {
  const ThermalModel3D model = make_liquid_model(
      1, static_cast<std::size_t>(state.range(0)), static_cast<std::size_t>(state.range(1)));
  const std::size_t bw = model.grid().cols() * model.layer_count();
  BandedLuMatrix a(model.node_count(), bw, bw);
  std::vector<double> inlet;
  for (auto _ : state) {
    ThermalModel3DTestAccess::reference_build_eliminated_system(model, 20.0, a, inlet);
    benchmark::DoNotOptimize(a.band().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_EliminatedAssembleSeedBaseline)->Args({23, 26});

ThermalModel3D make_model(std::size_t rows, std::size_t cols, std::size_t pairs) {
  ThermalModel3D m = make_liquid_model(pairs, rows, cols);
  const Floorplan& fp = m.stack().layer(0).floorplan;
  std::vector<double> w(fp.block_count(), 0.0);
  for (std::size_t b = 0; b < fp.block_count(); ++b) {
    if (fp.block(b).type == BlockType::kCore) w[b] = 3.0;
  }
  m.set_block_power(0, w);
  return m;
}

void BM_TransientStep(benchmark::State& state) {
  ThermalModel3D m = make_model(static_cast<std::size_t>(state.range(0)),
                                static_cast<std::size_t>(state.range(1)),
                                static_cast<std::size_t>(state.range(2)));
  m.step(0.05);  // prime the factorization
  for (auto _ : state) {
    m.step(0.05);
    benchmark::DoNotOptimize(m.max_temperature());
  }
  state.SetLabel("50ms backward-Euler step: one fluid-eliminated LU solve + fluid march");
}
// The 100 x 115 rows are the paper's 100 µm cells on the 11.5 x 10 mm die:
// b = 230 on 2 layers (an 85 MB band) and 460 on 4 (339 MB).
BENCHMARK(BM_TransientStep)
    ->Args({23, 26, 1})
    ->Args({23, 26, 2})
    ->Args({46, 52, 1})
    ->Args({100, 115, 1})
    ->Args({100, 115, 2});

// Batched air sessions: a BatchRunner run of N air-cooled sessions (1 s
// simulated on the paper-default grid, distinct workloads and seeds).  Each
// slice of up to four sessions shares one LU slot per dt, so it factorizes
// twice (steady warm start, transient substep), and steps its sessions in
// one four-column sweep per substep.  items = sessions; compare items/s
// across the 1/4/16 rows to read the sharing win.
void BM_BatchedTransient(benchmark::State& state) {
  const auto nsessions = static_cast<std::size_t>(state.range(0));
  const char* workloads[] = {"gzip", "Web-high", "MPlayer", "Database"};
  BatchRunner batch;
  for (std::size_t i = 0; i < nsessions; ++i) {
    SimulationConfig cfg;
    cfg.benchmark = *find_benchmark(workloads[i % 4]);
    cfg.cooling = CoolingMode::kAir;
    cfg.policy = Policy::kLoadBalancing;
    cfg.duration = SimTime::from_s(1);
    cfg.seed = 1 + i;
    batch.add(cfg);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(batch.run().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nsessions));
  state.SetLabel("BatchRunner, 2-layer air stack, 1 s simulated per session");
}
BENCHMARK(BM_BatchedTransient)->Arg(1)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_SteadyState(benchmark::State& state) {
  ThermalModel3D m = make_model(static_cast<std::size_t>(state.range(0)),
                                static_cast<std::size_t>(state.range(1)), 1);
  for (auto _ : state) {
    m.initialize(45.0);
    m.solve_steady_state();
    benchmark::DoNotOptimize(m.max_temperature());
  }
}
BENCHMARK(BM_SteadyState)->Args({12, 13})->Args({23, 26});

// Vector-flow steady solves: the per-cavity generalization rebuilds the
// fluid-eliminated system with one capacity rate per cavity.  arg2 = 0 runs
// the uniform broadcast (the pre-vector baseline cost), arg2 = 1 a skewed
// vector at the same total flow (valve-network operating point), so the
// JSON tracks the assembly cost of the vector path against uniform.
void BM_SteadyStatePerCavity(benchmark::State& state) {
  ThermalModel3D m = make_model(static_cast<std::size_t>(state.range(0)),
                                static_cast<std::size_t>(state.range(1)), 1);
  const bool skewed = state.range(2) != 0;
  const MicrochannelModel ch(CavitySpec{}, CoolantProperties::water());
  const FlowDelivery d(PumpModel::laing_ddc(), FlowDeliveryMode::kPressureLimited, ch,
                       11.5e-3, 3);
  const VolumetricFlow f = d.per_cavity(2);
  // Alternate between two operating points so every iteration pays the full
  // rebuild (assembly + factorization + solve) — a fixed flow would be a
  // cache hit after the first solve and hide the assembly cost.
  const std::vector<VolumetricFlow> skew_a = {f * 1.4, f * 1.0, f * 0.6};
  const std::vector<VolumetricFlow> skew_b = {f * 0.6, f * 1.0, f * 1.4};
  bool flip = false;
  for (auto _ : state) {
    flip = !flip;
    if (skewed) {
      m.set_cavity_flow(flip ? skew_a : skew_b);  // same total as uniform
    } else {
      m.set_cavity_flow(flip ? f : f * 1.02);
    }
    m.initialize(45.0);
    m.solve_steady_state();
    benchmark::DoNotOptimize(m.max_temperature());
  }
  state.SetLabel(skewed ? "per-cavity flow vector (skewed, equal total)"
                        : "uniform broadcast baseline");
}
BENCHMARK(BM_SteadyStatePerCavity)->Args({23, 26, 0})->Args({23, 26, 1});

// Full flow-LUT characterization (the acceptance workload: 25 utilization
// points x all pump settings) in the production configuration: the direct
// steady solve inside its leakage loop, each point continuing from the
// previous one's field, sampled over the thread pool.  The first argument is always 1, so the row names stay
// those of the recorded baseline; the second is the thread count.
void characterization_pass(std::size_t threads, std::size_t points) {
  const Stack3D stack = make_2layer_system();
  auto factory = [&]() {
    return std::make_unique<CharacterizationHarness>(
        stack, ThermalModelParams{}, PowerModelParams{}, PumpModel::laing_ddc(),
        FlowDeliveryMode::kPressureLimited);
  };
  const FlowLut lut = characterize_flow_lut(factory, 78.0, points, threads);
  benchmark::DoNotOptimize(lut.setting_count());
}

void BM_FlowLutCharacterization(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    characterization_pass(threads, 25);
  }
  state.SetLabel("solver engine: direct steady + leakage loop + pool");
}
BENCHMARK(BM_FlowLutCharacterization)
    ->Args({1, 1})
    ->Args({1, 0})  // 0 = hardware concurrency
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
