// steady-queries / steady-full / steady-wire — warm ThermalService steady
// queries in a closed loop.
//
//   steady-queries  one client thread, reduced-model (ROM) answers: key
//                   building, cache lookups, ReducedSteadyModel::evaluate.
//   steady-full     force_full queries: the steady direct solve on pooled
//                   models, flows varying between queries.
//   steady-wire     the steady-queries stream through an in-process
//                   ServeServer with one dispatch worker, one ServeClient
//                   connection over loopback TCP: envelope codec, frames,
//                   reader -> worker handoff.  One connection, not two,
//                   and every thread of the process on one CPU: with two
//                   connections spread over a shared 4-vCPU host, waking
//                   idle vCPUs cut the rate to a third for whole runs.
//
// Every stream draws from one working set of (system, flow) keys no larger
// than the service's ROM cache: the 2-layer liquid stack at three pump
// settings and two valve-opening vectors, plus smaller shares of the
// 4-layer liquid stack and the 2-layer air stack.  The 2-layer liquid stack
// gets most queries so the median falls inside one system's latency mode.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>

#include "common/rng.hpp"
#include "coolant/flow.hpp"
#include "coolant/microchannel.hpp"
#include "coolant/pump.hpp"
#include "geom/stack_spec.hpp"
#include "obs/trace.hpp"
#include "serve/net/client.hpp"
#include "serve/net/envelope.hpp"
#include "serve/net/server.hpp"
#include "serve/rom.hpp"
#include "serve/service.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace liquid3d;

namespace {

enum class Phase { kRom, kFull, kWire };

/// Distinct queries per stream; one pass over the stream is one block.  A
/// full solve costs ~10x a ROM answer, so its stream is shorter: blocks of
/// a fraction of a second either way.
constexpr std::size_t kRomQueries = 1024;
constexpr std::size_t kFullQueries = 256;
constexpr std::size_t kCheckSample = 16;
constexpr std::size_t kCodecSample = 1000;

struct Key {
  SimulationConfig cfg;
  std::size_t pump_setting = SteadyQuery::kTopSetting;
  std::vector<double> valves;
  double weight = 0.0;
};

SimulationConfig system_config(std::size_t layer_pairs, CoolingMode cooling,
                               const Options& opt) {
  SimulationConfig cfg;
  cfg.layer_pairs = layer_pairs;
  cfg.cooling = cooling;
  if (opt.smoke) {
    cfg.thermal.grid_rows = 8;
    cfg.thermal.grid_cols = 9;
  }
  return cfg;
}

/// Seven (system, flow) keys, within the default rom_cache_capacity of 8.
/// The full phase drops the air stack (its steady state has no direct solve).
std::vector<Key> working_set(const Options& opt, bool liquid_only) {
  const SimulationConfig two = system_config(1, CoolingMode::kLiquidMax, opt);
  const SimulationConfig four = system_config(2, CoolingMode::kLiquidMax, opt);
  const SimulationConfig air = system_config(1, CoolingMode::kAir, opt);
  std::vector<Key> keys = {
      {two, SteadyQuery::kTopSetting, {}, 0.16},
      {two, 2, {}, 0.16},
      {two, 1, {}, 0.16},
      {two, SteadyQuery::kTopSetting, {1.0, 0.6, 0.8}, 0.16},
      {two, SteadyQuery::kTopSetting, {0.5, 1.0, 0.7}, 0.16},
      {four, SteadyQuery::kTopSetting, {}, 0.10},
  };
  if (!liquid_only) keys.push_back({air, SteadyQuery::kTopSetting, {}, 0.10});
  return keys;
}

SteadyQuery key_query(const Key& key) {
  SteadyQuery q;
  q.config = key.cfg;
  q.pump_setting = key.pump_setting;
  q.valve_openings = key.valves;
  return q;
}

/// A seeded stream of distinct queries: per-block power maps (cores 1-4 W,
/// other blocks 0.2-1.2 W) and, for ROM queries, a reference temperature.
std::vector<SteadyQuery> make_stream(const Options& opt, Phase phase) {
  const std::vector<Key> keys = working_set(opt, phase == Phase::kFull);
  std::vector<Stack3D> stacks;
  double total_weight = 0.0;
  for (const Key& k : keys) {
    stacks.push_back(make_simulation_stack(k.cfg));
    total_weight += k.weight;
  }
  Rng rng(opt.seed ^ (phase == Phase::kFull ? 0xf011ULL : 0x5eedULL));
  const std::size_t n = opt.smoke ? 64 : phase == Phase::kFull ? kFullQueries : kRomQueries;
  // Exact shares per key in a seeded order: every seed runs the same mix.
  std::vector<std::size_t> picks;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const auto count = static_cast<std::size_t>(
        std::llround(keys[k].weight / total_weight * static_cast<double>(n)));
    picks.insert(picks.end(), count, k);
  }
  picks.resize(n, 0);
  for (std::size_t i = n - 1; i > 0; --i) std::swap(picks[i], picks[rng.uniform_index(i + 1)]);
  std::vector<SteadyQuery> stream;
  stream.reserve(n);
  for (std::size_t k : picks) {
    SteadyQuery q = key_query(keys[k]);
    const Stack3D& stack = stacks[k];
    q.block_watts.resize(stack.layer_count());
    for (std::size_t l = 0; l < stack.layer_count(); ++l) {
      const Floorplan& fp = stack.layer(l).floorplan;
      for (std::size_t b = 0; b < fp.block_count(); ++b) {
        q.block_watts[l].push_back(fp.block(b).type == BlockType::kCore
                                       ? rng.uniform(1.0, 4.0)
                                       : rng.uniform(0.2, 1.2));
      }
    }
    if (phase == Phase::kFull) {
      q.force_full = true;
    } else {
      q.reference_c = rng.uniform(40.0, 50.0);
    }
    stream.push_back(std::move(q));
  }
  return stream;
}

/// What set-up builds: a warm service, and for the wire phase a server with
/// its client connection.
struct Fixture {
  std::unique_ptr<ThermalService> service;
  std::unique_ptr<ServeServer> server;
  std::unique_ptr<ServeClient> client;

  void reset() {
    client.reset();
    if (server) server->stop();
    server.reset();
    service.reset();
  }
};

void build_fixture(Fixture& fx, Phase phase, const Options& opt) {
  fx.reset();
  fx.service = std::make_unique<ThermalService>();
  for (const Key& key : working_set(opt, phase == Phase::kFull)) {
    SteadyQuery q = key_query(key);
    if (phase == Phase::kFull) {
      // Pool warm-up: construct the model and run one full solve per key.
      q.force_full = true;
      (void)fx.service->steady(q);
    } else {
      fx.service->warm(q);  // ROM build
    }
  }
  if (phase == Phase::kWire) {
    ServerParams params;
    params.workers = 1;
    fx.server = std::make_unique<ServeServer>(*fx.service, params);
    fx.server->start(parse_endpoint("127.0.0.1:0", "e2e_bench"));
    fx.client = std::make_unique<ServeClient>(fx.server->endpoint());
    // Wait until the listener has accepted the connection: a connection
    // still in the accept backlog when ServeServer::stop() runs gets a
    // reader thread stop() never joins.
    while (fx.server->stats().wire_connections < 1) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
}

/// One closed-loop window in blocks: one pass over the stream, so every
/// block runs the same queries.  Latency is the mean of the block medians:
/// a shared host alternates fast and slow stretches, and the mean moves in
/// proportion to the time spent in each, where a median of the blocks
/// jumps from one mode to the other.  Rate and CPU per query are totals
/// over the whole blocks.  Only
/// per-block figures are kept, so the process's memory does not grow with
/// the number of queries answered.
struct Measured {
  std::size_t queries = 0;  ///< every query, the cut-short last block too
  std::vector<double> block_p50_s;
  std::vector<double> block_p99_s;
  std::size_t block_queries = 0;  ///< queries in whole blocks
  double block_s = 0.0;           ///< wall time of the whole blocks
  double block_cpu_s = 0.0;       ///< process CPU time of the whole blocks
  /// The answer to each distinct query, from its first pass.
  std::vector<SteadyAnswer> first;
  /// Answers on the wrong path (ROM expected but not used, or the reverse)
  /// or not finite.
  std::size_t bad = 0;
};

bool answer_ok(const SteadyAnswer& a, Phase phase) {
  const bool path_ok = phase == Phase::kFull ? !a.used_rom : a.used_rom;
  return path_ok && std::isfinite(a.t_max_c);
}

/// Closed loop over the stream, on one client thread, until the window
/// ends; a block cut short by the deadline counts its queries but gives no
/// block figures.
Measured measure(Fixture& fx, Phase phase, const std::vector<SteadyQuery>& stream,
                 double seconds, Tracer* tracer) {
  Measured out;
  out.first.resize(stream.size());
  std::vector<double> latency_s;
  latency_s.reserve(stream.size());
  const char* stage = phase == Phase::kWire ? "net.roundtrip" : "serve.steady";
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  for (std::size_t pass = 0; Clock::now() < deadline; ++pass) {
    latency_s.clear();
    const auto block_start = Clock::now();
    const double block_cpu = process_cpu_s();
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const auto t0 = Clock::now();
      if (t0 >= deadline) break;
      SteadyAnswer a;
      try {
        ScopedSpan span(tracer, stage);
        a = phase == Phase::kWire ? fx.client->steady(stream[i]) : fx.service->steady(stream[i]);
      } catch (const std::exception&) {
        a.t_max_c = std::nan("");  // counted as a bad answer below
      }
      latency_s.push_back(seconds_since(t0));
      if (!answer_ok(a, phase)) ++out.bad;
      if (pass == 0) out.first[i] = std::move(a);
    }
    out.queries += latency_s.size();
    if (latency_s.size() < stream.size()) break;
    out.block_s += seconds_since(block_start);
    out.block_cpu_s += process_cpu_s() - block_cpu;
    out.block_queries += latency_s.size();
    out.block_p50_s.push_back(median(latency_s));
    out.block_p99_s.push_back(quantile(latency_s, 0.99));
  }
  return out;
}

bool same_answer(const SteadyAnswer& a, const SteadyAnswer& b) {
  if (a.layer_max_c.size() != b.layer_max_c.size()) return false;
  for (std::size_t i = 0; i < a.layer_max_c.size(); ++i) {
    if (!same_bits(a.layer_max_c[i], b.layer_max_c[i])) return false;
  }
  return same_bits(a.t_max_c, b.t_max_c) && a.used_rom == b.used_rom &&
         same_bits(a.estimated_error_c, b.estimated_error_c) &&
         same_bits(a.certified_error_c, b.certified_error_c) &&
         a.rom_dimension == b.rom_dimension;
}

/// Output checks, outside the timed window.
void check(Fixture& fx, Phase phase, const std::vector<SteadyQuery>& stream,
           const Measured& m, const Options& opt, Report& report) {
  report.attempted(m.queries);
  for (std::size_t i = 0; i < m.bad; ++i) {
    report.fail(phase == Phase::kFull ? "answer not from the full solver or not finite"
                                      : "answer did not use the ROM or is not finite");
  }
  ThermalService& service = *fx.service;
  if (phase == Phase::kWire) {
    // Every wire answer bit-identical to the in-process answer.
    for (std::size_t i = 0; i < stream.size(); ++i) {
      SteadyAnswer local = service.steady(stream[i]);
      if (opt.perturb && i == 0) local.t_max_c += 1e-9;
      if (!same_answer(m.first[i], local)) {
        report.fail("wire answer " + std::to_string(i) + " differs from in-process");
      }
    }
    return;
  }
  // A seeded sample: ROM and full answers agree within the ROM's bound.
  const double bound = service.params().rom.max_error_c;
  Rng rng(opt.seed ^ 0xc4ecULL);
  for (std::size_t s = 0; s < kCheckSample; ++s) {
    const std::size_t i = rng.uniform_index(stream.size());
    SteadyQuery other = stream[i];
    other.force_full = phase != Phase::kFull;
    double reference = service.steady(other).t_max_c;
    if (opt.perturb && s == 0) reference += 1.0;
    if (!(std::fabs(m.first[i].t_max_c - reference) <= bound)) {
      report.fail("query " + std::to_string(i) + ": ROM and full answers differ by more than " +
                  std::to_string(bound) + " K");
    }
  }
}

/// The ROM's own stages on a model of the 2-layer liquid stack at top flow:
/// one build, then evaluate on the stream's 2-layer power maps.
void probe_rom(const std::vector<SteadyQuery>& stream, const Options& opt, Tracer& tracer) {
  const SimulationConfig cfg = system_config(1, CoolingMode::kLiquidMax, opt);
  const Stack3D stack = make_simulation_stack(cfg);
  ThermalModel3D model(stack, cfg.thermal);
  const MicrochannelModel channels(stack.cavity(), cfg.thermal.coolant,
                                   cfg.thermal.channel_params);
  const FlowDelivery delivery(PumpModel::laing_ddc(), cfg.delivery_mode, channels,
                              stack.width(), stack.cavity_count());
  model.set_cavity_flow(delivery.per_cavity(delivery.setting_count() - 1));
  const RomParams params;
  std::unique_ptr<ReducedSteadyModel> rom;
  {
    ScopedSpan span(&tracer, "rom.build");
    rom = std::make_unique<ReducedSteadyModel>(ReducedSteadyModel::build(model, params));
  }
  ReducedSteadyModel::Scratch scratch;
  RomEvaluation eval;
  for (const SteadyQuery& q : stream) {
    if (q.config.layer_pairs != 1 || q.config.cooling == CoolingMode::kAir) continue;
    ScopedSpan span(&tracer, "rom.evaluate");
    rom->evaluate(q.block_watts, *q.reference_c, 0.0, scratch, eval);
  }
}

double p50_us(const Tracer& tracer, const char* stage) {
  return 1e6 * median(tracer.stage(stage).durations_s);
}

/// Binds the calling thread, and every thread it starts from then on, to
/// the CPU it is running on.
void pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

void run_steady(const Options& opt, Report& report, Phase phase) {
  // The wire round trip hands off between three threads.  Spread over
  // several vCPUs, each hand-off may wake an idle vCPU, which a shared host
  // schedules late; on one CPU the next thread is woken where the last one
  // just ran.
  if (phase == Phase::kWire) pin_to_current_cpu();
  const std::vector<SteadyQuery> stream = make_stream(opt, phase);
  Fixture fx;
  std::vector<double> setups = setup_samples(opt, [&] { build_fixture(fx, phase, opt); });
  const ServeStats wire0 = fx.server ? fx.server->stats() : ServeStats{};
  const Measured m = measure(fx, phase, stream, opt.seconds, nullptr);
  const double rss_mb = peak_rss_mb();
  const std::size_t rejected = fx.server ? fx.server->stats().wire_rejected - wire0.wire_rejected : 0;
  check(fx, phase, stream, m, opt, report);
  for (std::size_t i = 0; i < rejected; ++i) report.fail("wire request rejected");
  fx.reset();
  for (double t : setup_samples(opt, [&] { build_fixture(fx, phase, opt); })) {
    setups.push_back(t);
  }
  fx.reset();
  const double setup_s = median(setups);

  const double p50 = mean(m.block_p50_s);
  const double qps = static_cast<double>(m.block_queries) / m.block_s;
  const double p99 = median(m.block_p99_s);
  report.set("setup_s", setup_s);
  report.set("peak_rss_mb", rss_mb);
  report.set("latency_p50_ms", 1e3 * p50);
  report.set("ops_per_s", qps);
  report.set("cpu_ms_per_op", 1e3 * m.block_cpu_s / static_cast<double>(m.block_queries));
  report.note("setup_s", setup_s, "s");
  report.note("peak_rss_mb", rss_mb, "MB");
  report.note("queries", static_cast<double>(m.queries), "count");
  switch (phase) {
    case Phase::kRom:
      report.note("steady_p50_us", 1e6 * p50, "us");
      report.note("steady_qps", qps, "1/s");
      break;
    case Phase::kFull:
      report.note("full_steady_p50_ms", 1e3 * p50, "ms");
      break;
    case Phase::kWire:
      report.note("wire_steady_p50_us", 1e6 * p50, "us");
      report.note("wire_steady_qps", qps, "1/s");
      break;
  }
  report.note("p99_us", 1e6 * p99, "us");
  if (!opt.trace) return;

  // Traced pass: one fresh set-up, the same window with a span around every
  // call, registry and ServeStats deltas over both.
  Tracer tracer;
  const Instruments before = Instruments::read();
  build_fixture(fx, phase, opt);
  if (phase == Phase::kWire) {
    obs::TraceRing::global().clear();
    obs::set_tracing(true);
  }
  const Measured traced = measure(fx, phase, stream, opt.seconds, &tracer);
  obs::set_tracing(false);
  const Instruments delta = Instruments::read() - before;
  const ServeStats stats = fx.server ? fx.server->stats() : fx.service->stats();
  fx.reset();

  report.set("solver.direct_solves", delta.direct_solves);
  report.set("solver.direct_solve_s", delta.direct_solve_s);
  report.set("solver.factorizations", delta.factorizations);
  report.set("solver.factorize_s", delta.factorize_s);
  report.set("solver.assemble_s", delta.assemble_s);
  report.set("serve.rom_hit_ratio",
             static_cast<double>(stats.rom_hits) /
                 static_cast<double>(std::max<std::size_t>(stats.steady_queries, 1)));
  report.set("serve.rom_builds", static_cast<double>(stats.rom_builds));
  report.set("serve.rom_fallbacks", static_cast<double>(stats.rom_fallbacks));
  report.set("serve.full_solves", static_cast<double>(stats.full_solves));
  report.set("serve.model_evictions", static_cast<double>(stats.model_evictions));
  report.set("obs.trace_overhead", mean(traced.block_p50_s) / p50 - 1.0);

  if (phase != Phase::kFull) {
    for (const SteadyQuery& q : stream) {
      ScopedSpan span(&tracer, "serve.key");
      const Stack3D stack = make_simulation_stack(q.config);
      const std::string spec = encode_stack_spec(resolved_stack_spec(q.config));
      (void)stack;
      (void)spec;
    }
    report.set("serve.key_us_p50", p50_us(tracer, "serve.key"));
  }
  if (phase == Phase::kRom) {
    probe_rom(stream, opt, tracer);
    report.set("rom.evaluate_us_p50", p50_us(tracer, "rom.evaluate"));
    report.set("rom.build_ms", 1e3 * tracer.stage("rom.build").total_s);
    report.set("serve.steady_p99_us", 1e6 * p99);
  }
  if (phase == Phase::kWire) {
    const std::size_t n = std::min(stream.size(), kCodecSample);
    for (std::size_t i = 0; i < n; ++i) {
      WireRequest req{i + 1, 0.0, stream[i]};
      std::string text;
      {
        ScopedSpan span(&tracer, "net.encode_request");
        text = encode_request(req);
      }
      {
        ScopedSpan span(&tracer, "net.decode_request");
        req = decode_request(text);
      }
      WireResponse resp{i + 1, traced.first[i]};
      {
        ScopedSpan span(&tracer, "net.encode_response");
        text = encode_response(resp);
      }
      ScopedSpan span(&tracer, "net.decode_response");
      resp = decode_response(text);
    }
    std::vector<double> dispatch_s, request_s;
    for (const obs::TraceSpan& s : obs::TraceRing::global().snapshot()) {
      const double d = 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
      if (s.stage == "dispatch") dispatch_s.push_back(d);
      if (s.stage == "request") request_s.push_back(d);
    }
    report.set("net.encode_request_us_p50", p50_us(tracer, "net.encode_request"));
    report.set("net.decode_request_us_p50", p50_us(tracer, "net.decode_request"));
    report.set("net.encode_response_us_p50", p50_us(tracer, "net.encode_response"));
    report.set("net.decode_response_us_p50", p50_us(tracer, "net.decode_response"));
    report.set("net.dispatch_us_p50", 1e6 * median(dispatch_s));
    report.set("net.transport_us_p50", 1e6 * (mean(traced.block_p50_s) - median(request_s)));
    report.set("net.rejected", static_cast<double>(stats.wire_rejected));
    report.set("net.wire_steady_p99_us", 1e6 * p99);
  }
  if (!opt.trace_dir.empty()) {
    tracer.dump(opt.trace_dir + "/" + opt.workload + "-" + std::to_string(opt.seed) + ".jsonl");
  }
}

}  // namespace

void run_steady_queries(const Options& opt, Report& report) {
  run_steady(opt, report, Phase::kRom);
}
void run_steady_full(const Options& opt, Report& report) {
  run_steady(opt, report, Phase::kFull);
}
void run_steady_wire(const Options& opt, Report& report) {
  run_steady(opt, report, Phase::kWire);
}

}  // namespace e2e
