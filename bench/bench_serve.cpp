// bench_serve — latency/throughput benchmarks for the always-on thermal
// service (serve/service.hpp), run under concurrent load:
//
//   BM_ServeSteadyQuery            warm-ROM steady T_max latency (p50/p99)
//                                  on the 2-layer Niagara liquid stack
//   BM_ServeSteadyQueryConcurrent  the same query from 4 threads against
//                                  one shared service
//   BM_ServeFullSteadyQuery        force_full steady queries cycling over
//                                  five flow keys of the 2-layer stack (three
//                                  pump settings, two valve vectors), each
//                                  solved through its pooled model's factor
//   BM_ServeBatchedWhatIf          16 concurrent what-if queries answered
//                                  through queue batching + lockstep
//   BM_ServeSerialWhatIf           the same 16 cells run one by one through
//                                  solo sessions (the baseline the batched
//                                  path must at least match per CI)
//   BM_ServeWireSteadyQuery        the warm-ROM steady query through the
//                                  full wire stack — framed envelope over a
//                                  loopback TCP socket into a ServeServer —
//                                  measured as client round-trip time (the
//                                  acceptance gate is p50 <= 60 us)
//   BM_EnvelopeSteadyRequestEncode /
//   BM_EnvelopeSteadyRequestDecode the envelope codec alone on the wire
//                                  workload's request shape: per-block
//                                  powers on both layers, valve openings
//                                  and a reference temperature (~1.5 KB)
//
// The p50_us / p99_us counters on BM_ServeSteadyQuery /
// BM_ServeWireSteadyQuery and the sessions_per_s counters on the what-if
// pair are recorded into BENCH_solver.json and guarded by
// scripts/check_bench_regression.py.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>
#include <vector>

#include "serve/net/client.hpp"
#include "serve/net/envelope.hpp"
#include "serve/net/server.hpp"
#include "serve/service.hpp"
#include "sim/session.hpp"

namespace {

using namespace liquid3d;

/// The acceptance configuration: 2-layer Niagara liquid stack, default grid.
SteadyQuery niagara_steady_query() {
  SteadyQuery q;
  q.config.cooling = CoolingMode::kLiquidMax;
  q.config.layer_pairs = 1;
  q.core_watts = 3.0;
  return q;
}

/// One service shared by every steady benchmark (and every thread): the
/// point is warm-cache latency, not build time.
ThermalService& shared_service() {
  static ThermalService service;
  return service;
}

void BM_ServeSteadyQuery(benchmark::State& state) {
  ThermalService& service = shared_service();
  const SteadyQuery query = niagara_steady_query();
  service.warm(query);  // ROM build paid outside timing

  std::vector<double> lat_us;
  lat_us.reserve(1 << 14);
  for (auto _ : state) {
    const SteadyAnswer answer = service.steady(query);
    benchmark::DoNotOptimize(answer.t_max_c);
    if (!answer.used_rom) state.SkipWithError("expected ROM path");
    lat_us.push_back(answer.elapsed_us);
  }
  std::sort(lat_us.begin(), lat_us.end());
  if (!lat_us.empty()) {
    state.counters["p50_us"] = lat_us[lat_us.size() / 2];
    state.counters["p99_us"] = lat_us[(lat_us.size() * 99) / 100];
  }
}
BENCHMARK(BM_ServeSteadyQuery)->Unit(benchmark::kMicrosecond);

void BM_ServeSteadyQueryConcurrent(benchmark::State& state) {
  ThermalService& service = shared_service();
  const SteadyQuery query = niagara_steady_query();
  if (state.thread_index() == 0) service.warm(query);

  for (auto _ : state) {
    const SteadyAnswer answer = service.steady(query);
    benchmark::DoNotOptimize(answer.t_max_c);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeSteadyQueryConcurrent)
    ->Threads(4)
    ->Unit(benchmark::kMicrosecond);

void BM_ServeFullSteadyQuery(benchmark::State& state) {
  static ThermalService service;
  std::vector<SteadyQuery> keys(5, niagara_steady_query());
  keys[1].pump_setting = 2;
  keys[2].pump_setting = 1;
  keys[3].valve_openings = {1.0, 0.6, 0.8};
  keys[4].valve_openings = {0.5, 1.0, 0.7};
  for (SteadyQuery& q : keys) {
    q.force_full = true;
    (void)service.steady(q);  // model build and factorization outside timing
  }

  std::vector<double> lat_us;
  lat_us.reserve(1 << 14);
  std::size_t i = 0;
  for (auto _ : state) {
    const SteadyAnswer answer = service.steady(keys[i++ % keys.size()]);
    benchmark::DoNotOptimize(answer.t_max_c);
    lat_us.push_back(answer.elapsed_us);
  }
  std::sort(lat_us.begin(), lat_us.end());
  if (!lat_us.empty()) {
    state.counters["p50_us"] = lat_us[lat_us.size() / 2];
    state.counters["p99_us"] = lat_us[(lat_us.size() * 99) / 100];
  }
}
BENCHMARK(BM_ServeFullSteadyQuery)->Unit(benchmark::kMicrosecond);

constexpr std::size_t kWhatIfFleet = 16;

WhatIfQuery bench_whatif(std::uint64_t seed) {
  WhatIfQuery q;
  q.scenario = "talb-var";
  q.benchmark = "Web-med";
  q.duration_s = 2.0;
  q.seed = seed;
  q.grid_rows = 8;
  q.grid_cols = 9;
  return q;
}

/// Characterization artifacts (flow LUT, TALB weights) are process-global;
/// pay their build once so both what-if benchmarks time simulation, not
/// characterization.
void warm_characterization() {
  static std::once_flag once;
  std::call_once(once, [] {
    SimulationSession session(ThermalService::session_config(bench_whatif(1)));
    session.init();
  });
}

/// One burst of kWhatIfFleet concurrent what-ifs through the queue.
double whatif_burst(ThermalService& service) {
  std::vector<std::future<SessionOutcome>> futures;
  futures.reserve(kWhatIfFleet);
  for (std::uint64_t seed = 1; seed <= kWhatIfFleet; ++seed) {
    futures.push_back(service.what_if(bench_whatif(seed)));
  }
  double tmax = 0.0;
  for (auto& f : futures) tmax += f.get().result.avg_tmax;
  return tmax;
}

/// The same kWhatIfFleet cells as solo sessions, one after another.
double serial_pass() {
  double tmax = 0.0;
  for (std::uint64_t seed = 1; seed <= kWhatIfFleet; ++seed) {
    const SimulationConfig cfg = ThermalService::session_config(bench_whatif(seed));
    tmax += SimulationSession(cfg).run().avg_tmax;
  }
  return tmax;
}

// Both what-if benchmarks time warm, repeated passes: a long-running
// service's queue worker has long since warmed its thread and heap, and a
// lone first pass (one per process) mostly measures that warm-up — the
// queue path's fresh worker thread against a serial loop on the already
// warm main thread.  Each runs one untimed pass first, then bursts for the
// benchmark's wall-clock budget.  The rate is computed from wall clock by
// hand: the sessions run on the queue's worker thread while this thread
// sleeps on futures, so a CPU-time-based Counter::kIsRate would overstate
// the batched throughput by orders of magnitude.
void BM_ServeBatchedWhatIf(benchmark::State& state) {
  warm_characterization();
  ServeParams params;
  params.queue.max_batch = kWhatIfFleet;
  ThermalService service(params);
  benchmark::DoNotOptimize(whatif_burst(service));
  double elapsed_s = 0.0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(whatif_burst(service));
    elapsed_s += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  }
  state.SetItemsProcessed(state.iterations() * kWhatIfFleet);
  state.counters["sessions_per_s"] =
      static_cast<double>(state.iterations() * kWhatIfFleet) / elapsed_s;
}
BENCHMARK(BM_ServeBatchedWhatIf)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ServeSerialWhatIf(benchmark::State& state) {
  warm_characterization();
  benchmark::DoNotOptimize(serial_pass());
  double elapsed_s = 0.0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(serial_pass());
    elapsed_s += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  }
  state.SetItemsProcessed(state.iterations() * kWhatIfFleet);
  state.counters["sessions_per_s"] =
      static_cast<double>(state.iterations() * kWhatIfFleet) / elapsed_s;
}
BENCHMARK(BM_ServeSerialWhatIf)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ServeWireSteadyQuery(benchmark::State& state) {
  ThermalService& service = shared_service();
  const SteadyQuery query = niagara_steady_query();
  service.warm(query);

  ServeServer server(service);
  server.start(parse_endpoint("127.0.0.1:0", "bench"));
  ServeClient client(server.endpoint());

  // Client-observed round trip: encode + frame + kernel loopback + decode +
  // dispatch + the ROM solve itself, both directions.
  std::vector<double> lat_us;
  lat_us.reserve(1 << 14);
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    const SteadyAnswer answer = client.steady(query);
    const auto stop = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(answer.t_max_c);
    if (!answer.used_rom) state.SkipWithError("expected ROM path");
    lat_us.push_back(
        std::chrono::duration<double, std::micro>(stop - start).count());
  }
  std::sort(lat_us.begin(), lat_us.end());
  if (!lat_us.empty()) {
    state.counters["p50_us"] = lat_us[lat_us.size() / 2];
    state.counters["p99_us"] = lat_us[(lat_us.size() * 99) / 100];
  }
  server.stop();
}
BENCHMARK(BM_ServeWireSteadyQuery)->Unit(benchmark::kMicrosecond);

/// The steady request the e2e `steady-wire` workload sends: a power for
/// every block of both layers (cores 1-4 W, other blocks 0.2-1.2 W, spread
/// deterministically), three valve openings and a reference temperature.
WireRequest wire_steady_request() {
  SteadyQuery q = niagara_steady_query();
  const Stack3D stack = make_simulation_stack(q.config);
  q.block_watts.resize(stack.layer_count());
  double phase = 0.0;
  for (std::size_t l = 0; l < stack.layer_count(); ++l) {
    const Floorplan& fp = stack.layer(l).floorplan;
    for (std::size_t b = 0; b < fp.block_count(); ++b) {
      phase = std::fmod(phase + 0.6180339887498949, 1.0);
      q.block_watts[l].push_back(fp.block(b).type == BlockType::kCore
                                     ? 1.0 + 3.0 * phase
                                     : 0.2 + phase);
    }
  }
  q.valve_openings = {1.0, 0.6, 0.8};
  q.reference_c = 44.718281828459045;
  return WireRequest{1, 0.0, q};
}

void BM_EnvelopeSteadyRequestEncode(benchmark::State& state) {
  const WireRequest request = wire_steady_request();
  for (auto _ : state) {
    std::string text = encode_request(request);
    benchmark::DoNotOptimize(text.data());
    benchmark::ClobberMemory();
  }
  state.counters["bytes"] = static_cast<double>(encode_request(request).size());
}
BENCHMARK(BM_EnvelopeSteadyRequestEncode)->Unit(benchmark::kMicrosecond);

void BM_EnvelopeSteadyRequestDecode(benchmark::State& state) {
  const std::string text = encode_request(wire_steady_request());
  for (auto _ : state) {
    WireRequest request = decode_request(text);
    benchmark::DoNotOptimize(&request);
  }
  state.counters["bytes"] = static_cast<double>(text.size());
}
BENCHMARK(BM_EnvelopeSteadyRequestDecode)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
